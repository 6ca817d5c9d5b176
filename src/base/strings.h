#ifndef PAPYRUS_BASE_STRINGS_H_
#define PAPYRUS_BASE_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace papyrus {

/// Splits `s` at every occurrence of `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a base-10 signed integer; rejects trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a base-10 unsigned integer; rejects trailing garbage.
bool ParseUint64(std::string_view s, uint64_t* out);

/// `v` as 16 lowercase hex digits, zero-padded.
std::string FormatHex(uint64_t v);

/// Parses hex digits of any width (up to 64 bits); rejects trailing
/// garbage.
bool ParseHex(std::string_view s, uint64_t* out);

/// 64-bit FNV-1a hash; used by the mock CAD tools for deterministic
/// pseudo-random transformations.
uint64_t Fnv1a(std::string_view s);

/// Percent-encodes whitespace, '%' and control characters so arbitrary
/// strings survive the line/field-oriented persistence format.
std::string PercentEncode(std::string_view s);
/// Inverse of PercentEncode; invalid escapes are kept literally.
std::string PercentDecode(std::string_view s);

/// Strict inverse of PercentEncode: a '%' must be followed by exactly two
/// hex digits. Malformed escapes ("%G1", a trailing "%" or "%4") return
/// InvalidArgument instead of being passed through — the persistence layer
/// uses this so corrupted snapshots are detected rather than silently
/// mis-decoded.
Result<std::string> PercentDecodeStrict(std::string_view s);

/// A string field of the line-oriented persistence formats:
/// `~<percent-encoded>`, so an empty value still occupies a
/// whitespace-delimited token (a bare `~`).
std::string EncField(std::string_view s);

/// Inverse of EncField; a token without the `~` prefix is
/// percent-decoded as is.
std::string DecField(std::string_view token);

}  // namespace papyrus

#endif  // PAPYRUS_BASE_STRINGS_H_
