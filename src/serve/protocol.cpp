#include "serve/protocol.hpp"

#include <cctype>
#include <climits>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include "core/report_json.hpp"

namespace pstab::serve {

// ---------------------------------------------------------------------------
// JsonValue

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& m : members)
    if (m.first == key) return &m.second;
  return nullptr;
}

bool JsonValue::is_uint() const noexcept {
  if (kind != Kind::number || raw.empty()) return false;
  for (const char c : raw)
    if (c < '0' || c > '9') return false;  // no sign, no '.', no exponent
  return raw.size() <= 20;                 // <= len("18446744073709551615")
}

std::uint64_t JsonValue::as_uint() const noexcept {
  return std::strtoull(raw.c_str(), nullptr, 10);
}

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string& err) : t_(text), err_(err) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != t_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    err_ = "json: " + msg + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < t_.size() &&
           (t_[pos_] == ' ' || t_[pos_] == '\t' || t_[pos_] == '\n' ||
            t_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool eof() const { return pos_ >= t_.size(); }
  [[nodiscard]] char peek() const { return t_[pos_]; }

  bool expect(char c) {
    if (eof() || t_[pos_] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool literal(const char* word, JsonValue& out, JsonValue::Kind kind,
               bool b) {
    const std::size_t len = std::strlen(word);
    if (t_.size() - pos_ < len || t_.substr(pos_, len) != word)
      return fail("invalid literal");
    pos_ += len;
    out.kind = kind;
    out.boolean = b;
    return true;
  }

  bool string_body(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (!eof()) {
      const char c = t_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) break;
      const char e = t_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (t_.size() - pos_ < 4) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = t_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // Encode as UTF-8 (surrogate pairs are not recombined; the
          // protocol's strings are ASCII in practice).
          if (code < 0x80) {
            out += char(code);
          } else if (code < 0x800) {
            out += char(0xC0 | (code >> 6));
            out += char(0x80 | (code & 0x3F));
          } else {
            out += char(0xE0 | (code >> 12));
            out += char(0x80 | ((code >> 6) & 0x3F));
            out += char(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool number_body(JsonValue& out) {
    const std::size_t start = pos_;
    if (!eof() && t_[pos_] == '-') ++pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(t_[pos_]))) ++pos_;
    if (!eof() && t_[pos_] == '.') {
      ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(t_[pos_])))
        ++pos_;
    }
    if (!eof() && (t_[pos_] == 'e' || t_[pos_] == 'E')) {
      ++pos_;
      if (!eof() && (t_[pos_] == '+' || t_[pos_] == '-')) ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(t_[pos_])))
        ++pos_;
    }
    out.raw = std::string(t_.substr(start, pos_ - start));
    if (out.raw.empty() || out.raw == "-") return fail("invalid number");
    out.kind = JsonValue::Kind::number;
    out.number = std::strtod(out.raw.c_str(), nullptr);
    return true;
  }

  bool value(JsonValue& out) {
    if (++depth_ > 64) return fail("nesting too deep");
    const bool ok = value_inner(out);
    --depth_;
    return ok;
  }

  bool value_inner(JsonValue& out) {
    skip_ws();
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': {
        ++pos_;
        out.kind = JsonValue::Kind::object;
        skip_ws();
        if (!eof() && peek() == '}') { ++pos_; return true; }
        for (;;) {
          skip_ws();
          std::string key;
          if (!string_body(key)) return false;
          skip_ws();
          if (!expect(':')) return false;
          JsonValue v;
          if (!value(v)) return false;
          out.members.emplace_back(std::move(key), std::move(v));
          skip_ws();
          if (eof()) return fail("unterminated object");
          if (peek() == ',') { ++pos_; continue; }
          return expect('}');
        }
      }
      case '[': {
        ++pos_;
        out.kind = JsonValue::Kind::array;
        skip_ws();
        if (!eof() && peek() == ']') { ++pos_; return true; }
        for (;;) {
          JsonValue v;
          if (!value(v)) return false;
          out.items.push_back(std::move(v));
          skip_ws();
          if (eof()) return fail("unterminated array");
          if (peek() == ',') { ++pos_; continue; }
          return expect(']');
        }
      }
      case '"':
        out.kind = JsonValue::Kind::string;
        return string_body(out.raw);
      case 't': return literal("true", out, JsonValue::Kind::boolean, true);
      case 'f': return literal("false", out, JsonValue::Kind::boolean, false);
      case 'n': return literal("null", out, JsonValue::Kind::null, false);
      default: return number_body(out);
    }
  }

  std::string_view t_;
  std::string& err_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue& out, std::string& err) {
  out = JsonValue{};
  return Parser(text, err).parse(out);
}

// ---------------------------------------------------------------------------
// Framing

void append_frame(std::string& out, std::string_view payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char prefix[4] = {char(len & 0xFF), char((len >> 8) & 0xFF),
                    char((len >> 16) & 0xFF), char((len >> 24) & 0xFF)};
  out.append(prefix, 4);
  out.append(payload.data(), payload.size());
}

bool write_frame(std::FILE* out, std::string_view payload) {
  std::string buf;
  buf.reserve(payload.size() + 4);
  append_frame(buf, payload);
  return std::fwrite(buf.data(), 1, buf.size(), out) == buf.size() &&
         std::fflush(out) == 0;
}

FrameRead read_frame(std::FILE* in, std::string& payload,
                     std::size_t max_frame, std::string& err) {
  unsigned char prefix[4];
  const std::size_t got = std::fread(prefix, 1, 4, in);
  if (got == 0 && std::feof(in)) return FrameRead::eof;
  if (got != 4) {
    err = "truncated frame length prefix";
    return FrameRead::error;
  }
  const std::uint32_t len = std::uint32_t(prefix[0]) |
                            (std::uint32_t(prefix[1]) << 8) |
                            (std::uint32_t(prefix[2]) << 16) |
                            (std::uint32_t(prefix[3]) << 24);
  if (len > max_frame) {
    // Reject before allocating: a corrupt or hostile prefix must not become
    // a multi-gigabyte resize.
    err = "frame of " + std::to_string(len) + " bytes exceeds the " +
          std::to_string(max_frame) + "-byte bound";
    return FrameRead::error;
  }
  payload.resize(len);
  if (len > 0 && std::fread(payload.data(), 1, len, in) != len) {
    err = "truncated frame payload";
    return FrameRead::error;
  }
  return FrameRead::ok;
}

bool set_tcp_nodelay(int fd) noexcept {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) == 0;
}

// ---------------------------------------------------------------------------
// Requests

namespace {

bool parse_op(const std::string& s, Op& out) {
  if (s == "solve") out = Op::solve;
  else if (s == "stats") out = Op::stats;
  else if (s == "shutdown") out = Op::shutdown;
  else return false;
  return true;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::solve: return "solve";
    case Op::stats: return "stats";
    case Op::shutdown: return "shutdown";
  }
  return "?";
}

bool type_error(std::string& err, const std::string& key, const char* want) {
  err = "key '" + key + "' must be " + want;
  return false;
}

/// A non-negative integer that fits the request's `int` field; anything
/// larger is an error naming the key, never a wrapped value.
bool int_field(const JsonValue& v, const std::string& key, int& out,
               std::string& err) {
  if (!v.is_uint()) return type_error(err, key, "a non-negative integer");
  if (v.as_uint() > std::uint64_t(INT_MAX))
    return type_error(err, key, "at most 2147483647");
  out = int(v.as_uint());
  return true;
}

}  // namespace

bool request_from_json(std::string_view text, Request& out, std::string& err) {
  out = Request{};
  JsonValue doc;
  if (!json_parse(text, doc, err)) return false;
  if (doc.kind != JsonValue::Kind::object) {
    err = "request must be a JSON object";
    return false;
  }
  const JsonValue* schema = doc.find("schema");
  if (!schema || schema->kind != JsonValue::Kind::string ||
      schema->raw != kSchema) {
    err = std::string("schema must be \"") + kSchema + "\"";
    return false;
  }
  bool saw_matrix = false, saw_solver = false;
  for (const auto& [key, v] : doc.members) {
    if (key == "schema") continue;
    if (key == "op") {
      if (v.kind != JsonValue::Kind::string ||
          !parse_op(v.raw, out.op))
        return type_error(err, key, "\"solve\", \"stats\" or \"shutdown\"");
    } else if (key == "id") {
      if (!v.is_uint()) return type_error(err, key, "a non-negative integer");
      out.solve.id = v.as_uint();
    } else if (key == "solver") {
      if (v.kind != JsonValue::Kind::string ||
          !core::parse_solver(v.raw, out.solve.solver))
        return type_error(err, key,
                          "a registry solver name (\"cg\", \"cholesky\", "
                          "\"ir\", \"lu_ir\", \"gmres_ir\") or alias");
      saw_solver = true;
    } else if (key == "matrix") {
      if (v.kind != JsonValue::Kind::string)
        return type_error(err, key, "a string");
      out.solve.matrix = v.raw;
      saw_matrix = true;
    } else if (key == "rescale") {
      if (v.kind != JsonValue::Kind::boolean)
        return type_error(err, key, "a boolean");
      out.solve.rescale = v.boolean;
    } else if (key == "tol") {
      if (v.kind != JsonValue::Kind::number || v.number < 0)
        return type_error(err, key, "a non-negative number");
      out.solve.tol = v.number;
    } else if (key == "max_iter") {
      if (!int_field(v, key, out.solve.max_iter, err)) return false;
    } else if (key == "max_iter_per_n") {
      if (!int_field(v, key, out.solve.max_iter_per_n, err)) return false;
    } else if (key == "fused_dots") {
      if (v.kind != JsonValue::Kind::boolean)
        return type_error(err, key, "a boolean");
      out.solve.fused_dots = v.boolean;
    } else if (key == "history") {
      if (v.kind != JsonValue::Kind::boolean)
        return type_error(err, key, "a boolean");
      out.solve.record_history = v.boolean;
    } else if (key == "resilience") {
      if (v.kind != JsonValue::Kind::boolean)
        return type_error(err, key, "a boolean");
      out.solve.resilience = v.boolean;
    } else if (key == "rhs_seed") {
      if (!v.is_uint()) return type_error(err, key, "a non-negative integer");
      out.solve.rhs_seed = v.as_uint();
    } else if (key == "budget") {
      if (!v.is_uint() || v.as_uint() > 1000000000ull)
        return type_error(err, key, "a non-negative tick count");
      out.solve.budget_ticks = int(v.as_uint());
    } else if (key == "kernels") {
      la::kernels::Backend b = la::kernels::Backend::Auto;
      if (v.kind != JsonValue::Kind::string ||
          !core::parse_backend(v.raw, b))
        return type_error(err, key,
                          "\"scalar\", \"batched\", \"simd\" or \"auto\"");
      out.solve.backend = b;
    } else if (key == "block") {
      if (!int_field(v, key, out.solve.block, err)) return false;
    } else if (key == "precision") {
      // The (u_f, u, u_r) triple as a nested object; unknown or non-string
      // members are rejected with the same name-the-offender strictness as
      // top-level keys.  Value validation (known formats, solver fit) is
      // core::SolveRequest::precision_error's job, shared with the CLI.
      if (v.kind != JsonValue::Kind::object)
        return type_error(err, key, "an object");
      for (const auto& [pk, pv] : v.members) {
        if (pv.kind != JsonValue::Kind::string)
          return type_error(err, "precision." + pk, "a string");
        if (pk == "factor") out.solve.precision.factor = pv.raw;
        else if (pk == "working") out.solve.precision.working = pv.raw;
        else if (pk == "residual") out.solve.precision.residual = pv.raw;
        else {
          err = "unknown key 'precision." + pk + "'";
          return false;
        }
      }
    } else {
      // The CLI's silent-typo fix, applied to the wire: an unrecognized key
      // is an error naming the offender, never silently ignored.
      err = "unknown key '" + key + "'";
      return false;
    }
  }
  if (out.op == Op::solve) {
    if (!saw_solver) { err = "missing key 'solver'"; return false; }
    if (!saw_matrix) { err = "missing key 'matrix'"; return false; }
  }
  return true;
}

std::string request_to_json(const Request& req) {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("op").value(op_name(req.op));
  w.key("id").value(std::uint64_t(req.solve.id));
  if (req.op == Op::solve) {
    const core::SolveRequest& s = req.solve;
    w.key("solver").value(core::to_string(s.solver));
    w.key("matrix").value(s.matrix);
    w.key("rescale").value(s.rescale);
    w.key("tol").value(s.tol);
    w.key("max_iter").value(s.max_iter);
    w.key("max_iter_per_n").value(s.max_iter_per_n);
    w.key("fused_dots").value(s.fused_dots);
    w.key("history").value(s.record_history);
    w.key("resilience").value(s.resilience);
    w.key("rhs_seed").value(std::uint64_t(s.rhs_seed));
    w.key("budget").value(s.budget_ticks);
    w.key("kernels").value(la::kernels::to_string(s.backend));
    w.key("block").value(s.block);
    w.key("precision").begin_object();
    w.key("factor").value(s.precision.factor);
    w.key("working").value(s.precision.working);
    w.key("residual").value(s.precision.residual);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

// ---------------------------------------------------------------------------
// Responses

std::string result_response_json(std::uint64_t id,
                                 const std::string& result_object) {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("id").value(id);
  w.key("ok").value(true);
  w.end_object();
  // Splice the pre-serialized result row in verbatim so the response body is
  // byte-identical to the artifact row (JsonWriter would re-escape it).
  std::string out = w.str();
  out.pop_back();  // '}'
  out += ",\"result\":";
  out += result_object;
  out += '}';
  return out;
}

std::string error_response_json(std::uint64_t id, const std::string& error) {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("id").value(id);
  w.key("ok").value(false);
  w.key("error").value(error);
  w.end_object();
  return w.str();
}

std::string response_json(const core::SolveResponse& resp) {
  return resp.ok ? result_response_json(resp.id, resp.result_json)
                 : error_response_json(resp.id, resp.error);
}

}  // namespace pstab::serve
