/**
 * @file
 * Strict text parsing for every text surface: CLI flags, sweep and
 * chaos spec files, and typed workload params. A value that is not
 * exactly a number in range is an error, never a silent 0 or a
 * wrapped -1.
 */

#ifndef TMI_COMMON_PARSE_HH
#define TMI_COMMON_PARSE_HH

#include <cstdint>
#include <string>

namespace tmi
{

/** Base-10 unsigned 64-bit integer: a leading digit (no sign, no
 *  space), nothing after the digits, no overflow. */
bool parseU64(const std::string &text, std::uint64_t &out);

/** An optional '-' followed by parseU64, within int range -- the
 *  rule for the knobs where -1 means "keep the default" (watchdog,
 *  monitor). */
bool parseInt(const std::string &text, int &out);

/** A whole strtod number (no trailing text, no ERANGE). */
bool parseDouble(const std::string &text, double &out);

/** @p s without leading and trailing whitespace. */
std::string trim(const std::string &s);

} // namespace tmi

#endif // TMI_COMMON_PARSE_HH
