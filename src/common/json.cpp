#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/telemetry.hpp"  // append_json_string

namespace gpurel::json {

namespace {

[[noreturn]] void type_error(const char* want, Value::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "int",
                                           "uint",   "double", "string",
                                           "array",  "object"};
  throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                           kNames[static_cast<std::size_t>(got)]);
}

}  // namespace

Value& Value::set(std::string key, Value v) {
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw std::out_of_range("json: missing key \"" + std::string(key) + "\"");
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (type_ != Type::Object) type_error("object", type_);
  return obj_;
}

void Value::push_back(Value v) {
  if (type_ != Type::Array) type_error("array", type_);
  arr_.push_back(std::move(v));
}

std::size_t Value::size() const {
  if (type_ == Type::Array) return arr_.size();
  if (type_ == Type::Object) return obj_.size();
  type_error("array or object", type_);
}

const Value& Value::operator[](std::size_t i) const {
  if (type_ != Type::Array) type_error("array", type_);
  return arr_.at(i);
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::Array) type_error("array", type_);
  return arr_;
}

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

std::int64_t Value::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ == Type::Uint) {
    if (uint_ > static_cast<std::uint64_t>(INT64_MAX))
      throw std::runtime_error("json: uint out of int64 range");
    return static_cast<std::int64_t>(uint_);
  }
  type_error("integer", type_);
}

std::uint64_t Value::as_uint() const {
  if (type_ == Type::Uint) return uint_;
  if (type_ == Type::Int) {
    if (int_ < 0) throw std::runtime_error("json: negative value for uint");
    return static_cast<std::uint64_t>(int_);
  }
  type_error("unsigned integer", type_);
}

double Value::as_double() const {
  switch (type_) {
    case Type::Double: return dbl_;
    case Type::Int: return static_cast<double>(int_);
    case Type::Uint: return static_cast<double>(uint_);
    case Type::Null: return std::nan("");  // non-finite round-trips as null
    default: type_error("number", type_);
  }
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return str_;
}

void append_shortest_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Shortest round-trip form: dump → parse → dump is byte-stable.
  char buf[32];
  auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, p);
}

void Value::dump(std::string& out) const {
  char buf[32];
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: {
      auto [p, ec] = std::to_chars(buf, buf + sizeof buf, int_);
      out.append(buf, p);
      break;
    }
    case Type::Uint: {
      auto [p, ec] = std::to_chars(buf, buf + sizeof buf, uint_);
      out.append(buf, p);
      break;
    }
    case Type::Double:
      append_shortest_double(out, dbl_);
      break;
    case Type::String: telemetry::append_json_string(out, str_); break;
    case Type::Array: {
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out.push_back(',');
        arr_[i].dump(out);
      }
      out.push_back(']');
      break;
    }
    case Type::Object: {
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out.push_back(',');
        telemetry::append_json_string(out, obj_[i].first);
        out.push_back(':');
        obj_[i].second.dump(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  out.reserve(256);
  dump(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    if (depth_ > 64) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    ++depth_;
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    --depth_;
    return obj;
  }

  Value parse_array() {
    ++depth_;
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    --depth_;
    return arr;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // BMP code point → UTF-8 (the serializer only emits \u00xx, but
          // accept the full range for interoperability).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool is_float = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_float = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("bad number");
    // RFC 8259: no leading zeros ("01"), so every number has one spelling.
    {
      const std::string_view digits = tok[0] == '-' ? tok.substr(1) : tok;
      if (digits.size() > 1 && digits[0] == '0' && digits[1] >= '0' &&
          digits[1] <= '9')
        fail("leading zero in number");
    }
    // "-0" must stay a double: as int64 the sign would vanish and the
    // dump→parse→dump identity (which content hashing relies on) would break.
    if (!is_float && tok == "-0") return Value(-0.0);
    if (!is_float) {
      if (tok[0] == '-') {
        std::int64_t v = 0;
        const auto [p, ec] = std::from_chars(tok.begin(), tok.end(), v);
        if (ec == std::errc() && p == tok.end()) return Value(v);
      } else {
        std::uint64_t v = 0;
        const auto [p, ec] = std::from_chars(tok.begin(), tok.end(), v);
        if (ec == std::errc() && p == tok.end()) return Value(v);
      }
      // Integer overflowed 64 bits: fall through to double.
    }
    double v = 0;
    const auto [p, ec] = std::from_chars(tok.begin(), tok.end(), v);
    if (ec != std::errc() || p != tok.end()) fail("bad number");
    return Value(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

const Value& field(const Value& obj, std::string_view key) {
  return obj.at(key);
}

}  // namespace

Value Value::parse(std::string_view text) { return Parser(text).run(); }

std::uint64_t get_uint(const Value& obj, std::string_view key) {
  return field(obj, key).as_uint();
}
std::uint32_t get_u32(const Value& obj, std::string_view key) {
  const std::uint64_t v = get_uint(obj, key);
  if (v > std::numeric_limits<std::uint32_t>::max())
    throw std::runtime_error("json: \"" + std::string(key) + "\" = " +
                             std::to_string(v) + " does not fit 32 bits");
  return static_cast<std::uint32_t>(v);
}
std::int64_t get_int(const Value& obj, std::string_view key) {
  return field(obj, key).as_int();
}
double get_double(const Value& obj, std::string_view key) {
  return field(obj, key).as_double();
}
bool get_bool(const Value& obj, std::string_view key) {
  return field(obj, key).as_bool();
}
const std::string& get_string(const Value& obj, std::string_view key) {
  return field(obj, key).as_string();
}

}  // namespace gpurel::json
