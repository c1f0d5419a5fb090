// The repo's one JSON reader and string escaper. Every JSON document the
// system reads back — a dataset's MANIFEST.json, a deployable LoggingPlan,
// a Chrome trace dump — goes through parse_json, and every JSON string any
// writer emits goes through json_escape, so the two always agree.
//
// The reader is a recursive-descent parser with a fixed nesting limit
// (kJsonMaxDepth), so hostile input is rejected with a JsonError instead of
// exhausting the stack. Numbers keep their source token: as_uint() converts
// it exactly to any unsigned 64-bit value (rejecting overflow), as_double()
// runs strtod on it, so %.17g doubles round-trip bit for bit. Strings decode
// every escape json_escape emits, including \u00XX.
//
// Deliberately lenient where the repo's files always were: numbers may
// carry leading zeros, and raw control characters inside strings are kept
// as they are.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace harvest::util {

/// Deepest array/object nesting parse_json accepts. The repo's documents
/// nest at most four levels.
inline constexpr std::size_t kJsonMaxDepth = 64;

/// Malformed JSON; what() ends with " at byte N".
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  std::string text;  ///< kString: the decoded string; kNumber: its token
  std::vector<JsonValue> items;                              ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;    ///< kObject

  /// The first member named `key`, or null (also for non-objects).
  const JsonValue* find(std::string_view key) const;
  /// The number as an exact unsigned integer; nullopt for anything else
  /// (a non-number, a sign, a fraction or exponent, or a value > 2^64-1).
  std::optional<std::uint64_t> as_uint() const;
  /// strtod of the number's token; nullopt for a non-number.
  std::optional<double> as_double() const;
};

/// Parses one complete JSON document (surrounding whitespace allowed).
/// Throws JsonError on malformed input, trailing characters, or nesting
/// deeper than kJsonMaxDepth.
JsonValue parse_json(std::string_view text);

/// Escapes `"`, `\` and control characters for embedding in a JSON string:
/// \n, \r and \t by name, the other control characters as \u00XX.
std::string json_escape(std::string_view s);

}  // namespace harvest::util
