// pstab-serve-v1: the wire protocol of `pstab serve`.
//
// Framing: every message is a little-endian u32 byte length followed by that
// many bytes of UTF-8 JSON.  Frames above the configured bound are rejected
// BEFORE allocation (a hostile length prefix cannot balloon memory), and a
// reader that hits a bad prefix cannot resync, so frame errors are terminal
// for the connection; JSON errors inside a well-formed frame are per-request
// and answered with an error response.
//
// Requests (strict: unknown keys are rejected so typos fail loudly, the same
// contract the CLI parser gives flags) carry "schema", "op" and the request
// keys of core::request_keys(), e.g.
//   {"schema":"pstab-serve-v1","op":"solve","id":1,"solver":"cg",
//    "matrix":"bcsstk02","tol":0,"budget":0,"kernels":"auto"}
// Everything but schema/matrix/solver is optional; "op" defaults to "solve"
// ("stats" and "shutdown" take only schema/op/id).  "budget" is a
// deterministic deadline in work units (core/budget.hpp); an exhausted
// budget comes back as ok=true rows with "status":"deadline_exceeded".
//
// Responses:
//   {"schema":"pstab-serve-v1","id":1,"ok":true,"result":{...}}   solved
//   {"schema":"pstab-serve-v1","id":1,"ok":false,"error":"..."}   failed
// `result` for a solve is a report_json row object, byte-identical to the
// corresponding row of a pstab-results-v1 artifact.  Responses carry NO
// cache-state field: a warm (memoized) response is byte-identical to the
// cold solve by construction, which is also what makes response bytes
// deterministic under concurrent streams whatever PSTAB_THREADS is.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/solve_api.hpp"

namespace pstab::serve {

inline constexpr const char* kSchema = "pstab-serve-v1";
inline constexpr std::size_t kDefaultMaxFrame = 1u << 20;  // 1 MiB

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (no external dependencies in
// this tree).  Objects preserve member order; numbers keep their raw token so
// 64-bit ids survive exactly (a double would lose precision past 2^53).

class JsonValue {
 public:
  enum class Kind { null, boolean, number, string, object, array };
  using Member = std::pair<std::string, JsonValue>;

  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string raw;       // number: the source token; string: the text
  std::vector<Member> members;   // object
  std::vector<JsonValue> items;  // array

  /// First member with this key (objects only); nullptr when absent.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] bool is_uint() const noexcept;
  /// Number as uint64 (asserting is_uint() was checked by the caller).
  [[nodiscard]] std::uint64_t as_uint() const noexcept;
};

/// Parse one JSON document (the whole string must be consumed).  Returns
/// false and fills `err` (with offset context) on malformed input.
bool json_parse(std::string_view text, JsonValue& out, std::string& err);

// ---------------------------------------------------------------------------
// Framing

/// Append the frame (length prefix + payload) for `payload` to `out`.
void append_frame(std::string& out, std::string_view payload);

/// Write one frame; returns false on I/O failure.
bool write_frame(std::FILE* out, std::string_view payload);

enum class FrameRead { ok, eof, error };

/// Read one frame.  `eof` means a clean end-of-stream at a frame boundary;
/// `error` covers truncated prefixes/payloads and oversized lengths (err
/// explains, and the stream must be abandoned — framing cannot resync).
FrameRead read_frame(std::FILE* in, std::string& payload,
                     std::size_t max_frame, std::string& err);

/// Turn off Nagle's algorithm on a connected TCP socket; both ends of a
/// pstab-serve-v1 connection call it.  Frames are small and flushed one by
/// one, so with Nagle on, every frame after the first in a burst waits for
/// the peer's delayed ACK (a 40 ms quantum on Linux).  False on failure.
bool set_tcp_nodelay(int fd) noexcept;

// ---------------------------------------------------------------------------
// Requests and responses

enum class Op { solve, stats, shutdown };

struct Request {
  Op op = Op::solve;
  core::SolveRequest solve;  // id is carried here for every op
};

/// Parse a pstab-serve-v1 request.  Strict: wrong schema, unknown keys,
/// wrong value types and unknown enum strings all fail, naming the offender.
bool request_from_json(std::string_view text, Request& out, std::string& err);

/// Canonical serialization (every field, fixed order).  request_from_json is
/// its exact inverse: parse(to_json(r)) == r for all representable r.
std::string request_to_json(const Request& req);

/// Response envelopes.  solve_response embeds resp.result_json verbatim when
/// ok (or an error envelope otherwise); the other two wrap pre-built JSON.
std::string response_json(const core::SolveResponse& resp);
std::string error_response_json(std::uint64_t id, const std::string& error);
std::string result_response_json(std::uint64_t id,
                                 const std::string& result_object);

}  // namespace pstab::serve
