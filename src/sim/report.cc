#include "sim/report.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <variant>

#include "common/logging.hh"

namespace ssp
{

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TextTable::addRow(std::vector<std::string> row)
{
    ssp_assert(row.size() == header_.size(), "row width mismatch");
    rows_.push_back(std::move(row));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        os << '\n';
    };
    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

std::string
fmtDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
fmtNormalized(double v, double base, int digits)
{
    if (base == 0)
        return "n/a";
    return fmtDouble(v / base, digits);
}

std::string
banner(const std::string &title)
{
    std::string line(title.size() + 4, '=');
    return line + "\n= " + title + " =\n" + line + "\n";
}

// ---- Json: construction and accessors --------------------------------------

using JsonArray = std::vector<Json>;
using JsonObject = std::vector<std::pair<std::string, Json>>;

struct Json::Payload
{
    std::variant<std::string, JsonArray, JsonObject> value;

    /** @{ @p j's contents as a T. @pre @p j holds a T. */
    template <typename T>
    static T &
    of(Json &j)
    {
        return std::get<T>(j.payload_->value);
    }

    template <typename T>
    static const T &
    of(const Json &j)
    {
        return std::get<T>(j.payload_->value);
    }
    /** @} */
};

Json::Json() = default;
Json::~Json() = default;

Json::Json(Json &&other) noexcept
    : kind_(std::exchange(other.kind_, Kind::Null)), bool_(other.bool_),
      num_(other.num_), payload_(std::move(other.payload_))
{
}

Json &
Json::operator=(Json &&other) noexcept
{
    kind_ = std::exchange(other.kind_, Kind::Null);
    bool_ = other.bool_;
    num_ = other.num_;
    payload_ = std::move(other.payload_);
    return *this;
}

Json::Json(const Json &other)
    : kind_(other.kind_), bool_(other.bool_), num_(other.num_),
      payload_(other.payload_ ? std::make_unique<Payload>(*other.payload_)
                              : nullptr)
{
}

Json &
Json::operator=(const Json &other)
{
    if (this != &other)
        *this = Json(other);
    return *this;
}

void
Json::shrinkToFit()
{
    if (kind_ == Kind::Array)
        Payload::of<JsonArray>(*this).shrink_to_fit();
    else if (kind_ == Kind::Object)
        Payload::of<JsonObject>(*this).shrink_to_fit();
}

Json
Json::boolean(bool v)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

Json
Json::number(double v)
{
    ssp_assert(std::isfinite(v), "JSON numbers must be finite");
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = v;
    return j;
}

Json
Json::number(std::uint64_t v)
{
    // Doubles hold integers exactly up to 2^53; simulator counters stay
    // far below that, but refuse silently lossy conversions.
    ssp_assert(v <= (std::uint64_t{1} << 53),
               "integer too large for a JSON number");
    return number(static_cast<double>(v));
}

Json
Json::str(std::string v)
{
    Json j;
    j.kind_ = Kind::String;
    j.payload_ = std::make_unique<Payload>(std::move(v));
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    j.payload_ = std::make_unique<Payload>(JsonArray{});
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    j.payload_ = std::make_unique<Payload>(JsonObject{});
    return j;
}

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        ssp_fatal("JSON value is not a bool");
    return bool_;
}

double
Json::asDouble() const
{
    if (kind_ != Kind::Number)
        ssp_fatal("JSON value is not a number");
    return num_;
}

std::uint64_t
Json::asUint() const
{
    double v = asDouble();
    if (v < 0 || v != std::floor(v))
        ssp_fatal("JSON number %g is not an unsigned integer", v);
    return static_cast<std::uint64_t>(v);
}

const std::string &
Json::asString() const
{
    if (kind_ != Kind::String)
        ssp_fatal("JSON value is not a string");
    return Payload::of<std::string>(*this);
}

void
Json::push(Json v)
{
    ssp_assert(kind_ == Kind::Array, "push() on a non-array");
    v.shrinkToFit();
    Payload::of<JsonArray>(*this).push_back(std::move(v));
}

std::size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return Payload::of<JsonArray>(*this).size();
    if (kind_ == Kind::Object)
        return Payload::of<JsonObject>(*this).size();
    ssp_fatal("size() on a non-container JSON value");
}

const Json &
Json::at(std::size_t i) const
{
    ssp_assert(kind_ == Kind::Array, "at() on a non-array");
    const JsonArray &arr = Payload::of<JsonArray>(*this);
    ssp_assert(i < arr.size(), "JSON array index out of range");
    return arr[i];
}

void
Json::set(const std::string &key, Json v)
{
    ssp_assert(kind_ == Kind::Object, "set() on a non-object");
    v.shrinkToFit();
    JsonObject &obj = Payload::of<JsonObject>(*this);
    for (auto &member : obj) {
        if (member.first == key) {
            member.second = std::move(v);
            return;
        }
    }
    obj.emplace_back(key, std::move(v));
}

bool
Json::has(const std::string &key) const
{
    ssp_assert(kind_ == Kind::Object, "has() on a non-object");
    for (const auto &member : Payload::of<JsonObject>(*this)) {
        if (member.first == key)
            return true;
    }
    return false;
}

const Json &
Json::operator[](const std::string &key) const
{
    ssp_assert(kind_ == Kind::Object, "operator[] on a non-object");
    for (const auto &member : Payload::of<JsonObject>(*this)) {
        if (member.first == key)
            return member.second;
    }
    ssp_fatal("JSON object has no member '%s'", key.c_str());
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    ssp_assert(kind_ == Kind::Object, "members() on a non-object");
    return Payload::of<JsonObject>(*this);
}

// ---- Json: serialization ---------------------------------------------------

std::string
jsonNumberToString(double v)
{
    // std::to_chars emits the shortest decimal form that parses back to
    // exactly v, and — unlike the printf family — is locale-independent
    // by definition, so emit -> parse -> emit is a fixed point under any
    // LC_NUMERIC.
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    ssp_assert(res.ec == std::errc(), "double did not fit a 64-char buf");
    return std::string(buf, res.ptr);
}

namespace
{

void
escapeJsonString(const std::string &s, std::ostringstream &os)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\b':
            os << "\\b";
            break;
          case '\f':
            os << "\\f";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    // Recursive lambda via explicit self-parameter.
    auto emit = [&](const Json &j, int depth, auto &&self) -> void {
        const std::string pad(static_cast<std::size_t>(indent) *
                                  (static_cast<std::size_t>(depth) + 1),
                              ' ');
        const std::string close_pad(
            static_cast<std::size_t>(indent) *
                static_cast<std::size_t>(depth),
            ' ');
        const char *nl = indent > 0 ? "\n" : "";
        switch (j.kind_) {
          case Kind::Null:
            os << "null";
            break;
          case Kind::Bool:
            os << (j.bool_ ? "true" : "false");
            break;
          case Kind::Number:
            os << jsonNumberToString(j.num_);
            break;
          case Kind::String:
            escapeJsonString(j.asString(), os);
            break;
          case Kind::Array: {
            const JsonArray &arr = Payload::of<JsonArray>(j);
            if (arr.empty()) {
                os << "[]";
                break;
            }
            os << '[' << nl;
            for (std::size_t i = 0; i < arr.size(); ++i) {
                os << pad;
                self(arr[i], depth + 1, self);
                if (i + 1 < arr.size())
                    os << ',';
                os << nl;
            }
            os << close_pad << ']';
            break;
          }
          case Kind::Object: {
            const JsonObject &obj = j.members();
            if (obj.empty()) {
                os << "{}";
                break;
            }
            os << '{' << nl;
            for (std::size_t i = 0; i < obj.size(); ++i) {
                os << pad;
                escapeJsonString(obj[i].first, os);
                os << (indent > 0 ? ": " : ":");
                self(obj[i].second, depth + 1, self);
                if (i + 1 < obj.size())
                    os << ',';
                os << nl;
            }
            os << close_pad << '}';
            break;
          }
        }
    };
    emit(*this, 0, emit);
    return os.str();
}

// ---- Json: parsing ---------------------------------------------------------

namespace
{

/** Recursive-descent JSON parser over a complete in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        Json j = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return j;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        ssp_fatal("JSON parse error at offset %zu: %s", pos_, what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::string::traits_type::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Json
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return Json::str(parseString());
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return Json::boolean(true);
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return Json::boolean(false);
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return Json{};
          default:
            return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json j = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return j;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            j.set(key, parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return j;
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json j = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return j;
        }
        while (true) {
            j.push(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return j;
        }
    }

    std::string
    parseString()
    {
        if (peek() != '"')
            fail("expected string");
        ++pos_;
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out.push_back(esc);
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // UTF-8 encode the BMP code point (reports are ASCII;
                // surrogate pairs are not supported).
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    Json
    parseNumber()
    {
        // Scan the token by the JSON grammar first so strtod's laxer
        // forms (hex, inf, nan, leading '+') are rejected.
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        std::size_t digits = 0;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
            ++digits;
        }
        if (digits == 0) {
            pos_ = start;
            fail("expected a value");
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        double v = std::strtod(text_.c_str() + start, nullptr);
        if (!std::isfinite(v)) {
            pos_ = start;
            fail("number out of double range");
        }
        return Json::number(v);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return JsonParser(text).parseDocument();
}

} // namespace ssp
