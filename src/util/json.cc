#include "util/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <utility>

#include "util/logging.hh"

namespace flash::util
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

bool
JsonValue::get(const std::string &key, double &out) const
{
    const JsonValue *f = find(key);
    if (f == nullptr || !f->isNumber())
        return false;
    out = f->number;
    return true;
}

bool
JsonValue::get(const std::string &key, std::uint64_t &out, double max) const
{
    return jsonCount(find(key), out, max);
}

bool
JsonValue::get(const std::string &key, std::string &out) const
{
    const JsonValue *f = find(key);
    if (f == nullptr || f->type != Type::String)
        return false;
    out = f->string;
    return true;
}

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        fatalIf(pos_ != text_.size(), "json: trailing characters");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        fatalIf(pos_ >= text_.size(), "json: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        // The message is built only on failure: expect() runs for
        // every ':' and closing bracket.
        if (peek() != c) {
            fatal(std::string("json: expected '") + c + "' at offset "
                  + std::to_string(pos_));
        }
        ++pos_;
    }

    bool
    consume(const char *lit)
    {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    value(int depth = 0)
    {
        fatalIf(depth > kMaxDepth, "json: nesting too deep");
        skipWs();
        JsonValue v;
        const char c = peek();
        if (c == '{') {
            v.type = JsonValue::Type::Object;
            ++pos_;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            while (true) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                v.object[key] = value(depth + 1);
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                break;
            }
        } else if (c == '[') {
            v.type = JsonValue::Type::Array;
            ++pos_;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            while (true) {
                v.array.push_back(value(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                break;
            }
        } else if (c == '"') {
            v.type = JsonValue::Type::String;
            v.string = parseString();
        } else if (consume("true")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
        } else if (consume("false")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
        } else if (consume("null")) {
            v.type = JsonValue::Type::Null;
        } else {
            v.type = JsonValue::Type::Number;
            v.number = parseNumber();
        }
        return v;
    }

    /** Four hex digits of a \\u escape (cursor already past "\\u"). */
    unsigned
    hex4()
    {
        fatalIf(pos_ + 4 > text_.size(), "json: bad \\u escape");
        unsigned code = 0;
        const auto res = std::from_chars(
            text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
        fatalIf(res.ec != std::errc() || res.ptr != text_.data() + pos_ + 4,
                "json: bad \\u escape");
        pos_ += 4;
        return code;
    }

    /** Append one code point as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            fatalIf(pos_ >= text_.size(), "json: unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                break;
            if (c != '\\') {
                out += c;
                continue;
            }
            fatalIf(pos_ >= text_.size(), "json: dangling escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                unsigned code = hex4();
                if (code >= 0xd800 && code <= 0xdbff) {
                    // High surrogate: a low surrogate must follow.
                    fatalIf(pos_ + 2 > text_.size() || text_[pos_] != '\\'
                                || text_[pos_ + 1] != 'u',
                            "json: unpaired surrogate");
                    pos_ += 2;
                    const unsigned low = hex4();
                    fatalIf(low < 0xdc00 || low > 0xdfff,
                            "json: unpaired surrogate");
                    code = 0x10000 + ((code - 0xd800) << 10)
                        + (low - 0xdc00);
                } else {
                    fatalIf(code >= 0xdc00 && code <= 0xdfff,
                            "json: unpaired surrogate");
                }
                appendUtf8(out, code);
                break;
            }
            default:
                fatal("json: unknown escape");
            }
        }
        return out;
    }

    double
    parseNumber()
    {
        double out = 0.0;
        const auto res = std::from_chars(text_.data() + pos_,
                                         text_.data() + text_.size(), out);
        // from_chars also reads "nan" and "inf", which JSON has not.
        if (res.ec != std::errc() || !std::isfinite(out))
            fatal("json: bad number at offset " + std::to_string(pos_));
        pos_ = static_cast<std::size_t>(res.ptr - text_.data());
        return out;
    }

    /** Containers deeper than this are malformed, not a stack overflow. */
    static constexpr int kMaxDepth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).parse();
}

bool
jsonCount(const JsonValue *v, std::uint64_t &out, double max)
{
    if (v == nullptr || !v->isNumber() || !(v->number >= 0.0) // NaN too
        || v->number > max)
        return false;
    out = static_cast<std::uint64_t>(v->number);
    return true;
}

JsonLinesReader::JsonLinesReader(Sink sink) : sink_(std::move(sink))
{
    fatalIf(!sink_, "JsonLinesReader: null sink");
}

void
JsonLinesReader::feed(std::string_view chunk)
{
    fatalIf(finished_, "JsonLinesReader: feed after finish");
    for (std::size_t nl; (nl = chunk.find('\n')) != std::string_view::npos;
         chunk.remove_prefix(nl + 1)) {
        if (partial_.empty()) {
            consumeLine(chunk.substr(0, nl));
        } else {
            partial_.append(chunk.substr(0, nl));
            consumeLine(partial_);
            partial_.clear();
        }
    }
    partial_.append(chunk);
}

void
JsonLinesReader::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (partial_.empty())
        return;
    // Usually a truncated write; count it as one on top of the
    // malformed line unless the bytes form a complete record.
    const std::uint64_t malformed_before = stats_.malformed;
    consumeLine(partial_);
    partial_.clear();
    if (stats_.malformed > malformed_before)
        ++stats_.truncatedTail;
}

void
JsonLinesReader::read(std::istream &is)
{
    // Whatever the stream buffer holds after each refill is one chunk.
    std::streambuf &sb = *is.rdbuf();
    char buf[1 << 14];
    while (sb.sgetc() != std::streambuf::traits_type::eof()) {
        const std::streamsize n = sb.sgetn(
            buf, std::min<std::streamsize>(sb.in_avail(), sizeof buf));
        feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
    finish();
}

void
JsonLinesReader::consumeLine(std::string_view line)
{
    // The parser's whitespace, less the newline no line holds.
    constexpr std::string_view kSpace = " \t\r\v\f";
    const std::size_t first = line.find_first_not_of(kSpace);
    if (first == std::string_view::npos)
        return;
    ++stats_.lines;
    // Only text from '{' to '}' can be an object: anything else (most
    // often a cut line) is malformed without a parse.
    if (line[first] != '{' || line[line.find_last_not_of(kSpace)] != '}') {
        ++stats_.malformed;
        return;
    }
    JsonValue v;
    try {
        v = parseJson(line);
    } catch (const FatalError &) {
        ++stats_.malformed;
        return;
    }
    const LineVerdict verdict =
        v.isObject() ? sink_(v) : LineVerdict::Malformed;
    ++(verdict == LineVerdict::Record    ? stats_.records
       : verdict == LineVerdict::Ignored ? stats_.ignored
                                         : stats_.malformed);
}

} // namespace flash::util
