#include "common/parse.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

namespace tmi
{

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool
parseInt(const std::string &text, int &out)
{
    bool neg = !text.empty() && text[0] == '-';
    std::uint64_t u = 0;
    if (!parseU64(neg ? text.substr(1) : text, u) || u > INT_MAX)
        return false;
    out = neg ? -static_cast<int>(u) : static_cast<int>(u);
    return true;
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace tmi
