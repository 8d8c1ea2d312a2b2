#include "workloads/params.hh"

#include <algorithm>
#include <cstdio>

#include "common/parse.hh"

namespace tmi
{

namespace
{

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items) {
        if (!out.empty())
            out += ", ";
        out += item;
    }
    return out;
}

} // namespace

const char *
paramTypeName(ParamType type)
{
    switch (type) {
      case ParamType::Int: return "int";
      case ParamType::Double: return "double";
      case ParamType::Bool: return "bool";
      case ParamType::Enum: return "enum";
    }
    return "?";
}

std::string
ParamSpec::defaultText() const
{
    switch (type) {
      case ParamType::Int:
        return std::to_string(defaultInt);
      case ParamType::Double: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", defaultDouble);
        return buf;
      }
      case ParamType::Bool:
        return defaultBool ? "true" : "false";
      case ParamType::Enum:
        return defaultEnum;
    }
    return "";
}

ParamSchema &
ParamSchema::intKnob(std::string name, std::uint64_t def,
                     std::string desc)
{
    ParamSpec spec;
    spec.name = std::move(name);
    spec.type = ParamType::Int;
    spec.defaultInt = def;
    spec.desc = std::move(desc);
    _specs.push_back(std::move(spec));
    return *this;
}

ParamSchema &
ParamSchema::doubleKnob(std::string name, double def, std::string desc)
{
    ParamSpec spec;
    spec.name = std::move(name);
    spec.type = ParamType::Double;
    spec.defaultDouble = def;
    spec.desc = std::move(desc);
    _specs.push_back(std::move(spec));
    return *this;
}

ParamSchema &
ParamSchema::boolKnob(std::string name, bool def, std::string desc)
{
    ParamSpec spec;
    spec.name = std::move(name);
    spec.type = ParamType::Bool;
    spec.defaultBool = def;
    spec.desc = std::move(desc);
    _specs.push_back(std::move(spec));
    return *this;
}

ParamSchema &
ParamSchema::enumKnob(std::string name, std::string def,
                      std::vector<std::string> values, std::string desc)
{
    ParamSpec spec;
    spec.name = std::move(name);
    spec.type = ParamType::Enum;
    spec.defaultEnum = std::move(def);
    spec.enumValues = std::move(values);
    spec.desc = std::move(desc);
    _specs.push_back(std::move(spec));
    return *this;
}

const ParamSpec *
ParamSchema::find(const std::string &name) const
{
    for (const ParamSpec &spec : _specs) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

std::string
ParamSchema::validKeyList() const
{
    std::vector<std::string> names;
    names.reserve(_specs.size());
    for (const ParamSpec &spec : _specs)
        names.push_back(spec.name);
    return joinList(names);
}

std::uint64_t
ParamValues::getInt(const std::string &name) const
{
    auto it = _values.find(name);
    return it == _values.end() ? 0 : it->second.i;
}

double
ParamValues::getDouble(const std::string &name) const
{
    auto it = _values.find(name);
    return it == _values.end() ? 0.0 : it->second.d;
}

bool
ParamValues::getBool(const std::string &name) const
{
    auto it = _values.find(name);
    return it == _values.end() ? false : it->second.b;
}

const std::string &
ParamValues::getEnum(const std::string &name) const
{
    static const std::string empty;
    auto it = _values.find(name);
    return it == _values.end() ? empty : it->second.e;
}

void
ParamValues::set(const std::string &name, ParamValue value)
{
    _values[name] = std::move(value);
}

bool
parseParamAssignment(const std::string &text,
                     std::pair<std::string, std::string> &out,
                     std::string &err)
{
    std::size_t eq = text.find('=');
    if (eq == std::string::npos) {
        err = "'" + text + "' is not of the form key=value";
        return false;
    }
    out.first = trim(text.substr(0, eq));
    out.second = trim(text.substr(eq + 1));
    if (out.first.empty()) {
        err = "'" + text + "' has an empty parameter key";
        return false;
    }
    return true;
}

bool
resolveParams(const ParamSchema &schema, const RawParams &raw,
              ParamValues &out, std::string &err)
{
    // Defaults first; overlays below replace them knob by knob.
    for (const ParamSpec &spec : schema.specs()) {
        ParamValue v;
        v.type = spec.type;
        v.i = spec.defaultInt;
        v.d = spec.defaultDouble;
        v.b = spec.defaultBool;
        v.e = spec.defaultEnum;
        out.set(spec.name, std::move(v));
    }

    for (const auto &[key, text] : raw) {
        const ParamSpec *spec = schema.find(key);
        if (!spec) {
            if (schema.empty()) {
                err = "unknown parameter '" + key +
                      "': this workload takes no parameters";
            } else {
                err = "unknown parameter '" + key +
                      "'; valid keys are: " + schema.validKeyList();
            }
            return false;
        }
        ParamValue v;
        v.type = spec->type;
        switch (spec->type) {
          case ParamType::Int:
            if (!parseU64(text, v.i)) {
                err = "parameter '" + key + "' wants an unsigned "
                      "integer, got '" + text + "'";
                return false;
            }
            break;
          case ParamType::Double:
            if (!parseDouble(text, v.d)) {
                err = "parameter '" + key + "' wants a number, got '" +
                      text + "'";
                return false;
            }
            break;
          case ParamType::Bool:
            if (text == "true" || text == "1") {
                v.b = true;
            } else if (text == "false" || text == "0") {
                v.b = false;
            } else {
                err = "parameter '" + key + "' wants true/false, "
                      "got '" + text + "'";
                return false;
            }
            break;
          case ParamType::Enum:
            if (std::find(spec->enumValues.begin(),
                          spec->enumValues.end(),
                          text) == spec->enumValues.end()) {
                err = "parameter '" + key + "' wants one of {" +
                      joinList(spec->enumValues) + "}, got '" + text +
                      "'";
                return false;
            }
            v.e = text;
            break;
        }
        out.set(key, std::move(v));
    }
    return true;
}

std::string
canonicalParamText(const RawParams &raw)
{
    if (raw.empty())
        return "-";
    RawParams sorted = raw;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::string out;
    for (const auto &[key, value] : sorted) {
        if (!out.empty())
            out += ";";
        out += key + "=" + value;
    }
    return out;
}

} // namespace tmi
