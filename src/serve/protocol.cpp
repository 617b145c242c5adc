#include "serve/protocol.hpp"

#include <cctype>
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

constexpr const char* kOps[] = {"solve", "stats", "shutdown"};  // by Op

bool parse_op(const std::string& s, Op& out) {
  for (int i = 0; i < int(std::size(kOps)); ++i) {
    if (s == kOps[i]) {
      out = Op(i);
      return true;
    }
  }
  return false;
}

constexpr JsonValue::Kind kWireKind[] = {  // by core::KeyKind
    JsonValue::Kind::boolean, JsonValue::Kind::number, JsonValue::Kind::string};

/// Set the request key `name` from `v`, or fail naming the key and the text.
/// A key takes one JSON kind: a flag a boolean, a number a number token, and
/// text a string; the key's validator then reads the token or the string.
bool set_key(const std::string& name, const JsonValue& v,
             core::SolveRequest& r, std::string& err) {
  const core::RequestKey* k = core::find_wire_key(name);
  if (!k) {
    err = "unknown key '" + name + "'";
    return false;
  }
  const std::string text =
      v.kind == JsonValue::Kind::boolean ? (v.boolean ? "true" : "false")
                                         : v.raw;
  if (v.kind == kWireKind[int(k->kind())] && k->set(r, text)) return true;
  err = "key '" + name + "' must be " + k->expects() + ", got '" + text + "'";
  return false;
}

/// A wire object whose members are dotted request keys ("precision").
bool is_key_group(const std::string& name) {
  const std::string prefix = name + ".";
  for (const core::RequestKey& k : core::request_keys())
    if (std::string_view(k.wire).starts_with(prefix)) return true;
  return false;
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
  for (const auto& [key, v] : doc.members) {
    if (key == "schema") continue;
    if (key == "op") {
      if (v.kind != JsonValue::Kind::string || !parse_op(v.raw, out.op)) {
        err = "key 'op' must be \"solve\", \"stats\" or \"shutdown\"";
        return false;
      }
    } else if (!is_key_group(key)) {
      if (!set_key(key, v, out.solve, err)) return false;
    } else if (v.kind != JsonValue::Kind::object) {
      err = "key '" + key + "' must be an object";
      return false;
    } else {
      for (const auto& [member, mv] : v.members)
        if (!set_key(key + "." + member, mv, out.solve, err))
          return false;
    }
  }
  if (out.op == Op::solve) {
    for (const core::RequestKey& k : core::request_keys()) {
      if (k.required && !doc.find(k.wire)) {
        err = std::string("missing key '") + k.wire + "'";
        return false;
      }
    }
  }
  return true;
}

std::string request_to_json(const Request& req) {
  core::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("op").value(kOps[int(req.op)]);
  // Every op carries its id; only a solve carries the rest.
  core::write_request_keys(req.solve, w, core::KeyScope::wire,
                           req.op == Op::solve ? core::KeyScope::batch
                                               : core::KeyScope::wire);
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
