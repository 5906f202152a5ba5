#include "common/json.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace lbsim
{

JsonWriter::JsonWriter(std::ostream &out) : out_(out)
{
}

std::string
JsonWriter::escape(const std::string &text)
{
    std::string escaped;
    escaped.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
          case '"':
            escaped += "\\\"";
            break;
          case '\\':
            escaped += "\\\\";
            break;
          case '\n':
            escaped += "\\n";
            break;
          case '\t':
            escaped += "\\t";
            break;
          case '\r':
            escaped += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                escaped += buf;
            } else {
                escaped += static_cast<char>(c);
            }
        }
    }
    return escaped;
}

void
JsonWriter::indent()
{
    out_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        out_ << "  ";
}

void
JsonWriter::separate()
{
    if (stack_.empty())
        return;
    if (counts_.back()++)
        out_ << ',';
    indent();
}

void
JsonWriter::key(const std::string &key)
{
    LB_ASSERT(!stack_.empty() && stack_.back(),
              "JSON key '%s' outside an object", key.c_str());
    separate();
    out_ << '"' << escape(key) << "\": ";
}

void
JsonWriter::beginObject()
{
    separate();
    out_ << '{';
    stack_.push_back(true);
    counts_.push_back(0);
}

void
JsonWriter::beginObjectField(const std::string &name)
{
    key(name);
    out_ << '{';
    stack_.push_back(true);
    counts_.push_back(0);
}

void
JsonWriter::endObject()
{
    LB_ASSERT(!stack_.empty() && stack_.back(), "unbalanced endObject");
    const bool had_fields = counts_.back() > 0;
    stack_.pop_back();
    counts_.pop_back();
    if (had_fields)
        indent();
    out_ << '}';
}

void
JsonWriter::beginArray()
{
    separate();
    out_ << '[';
    stack_.push_back(false);
    counts_.push_back(0);
}

void
JsonWriter::beginArrayField(const std::string &name)
{
    key(name);
    out_ << '[';
    stack_.push_back(false);
    counts_.push_back(0);
}

void
JsonWriter::endArray()
{
    LB_ASSERT(!stack_.empty() && !stack_.back(), "unbalanced endArray");
    const bool had_elements = counts_.back() > 0;
    stack_.pop_back();
    counts_.pop_back();
    if (had_elements)
        indent();
    out_ << ']';
}

namespace
{

/** Shortest round-trippable double; non-finite becomes null. */
std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
JsonWriter::field(const std::string &name, const std::string &v)
{
    key(name);
    out_ << '"' << escape(v) << '"';
}

void
JsonWriter::field(const std::string &name, const char *v)
{
    field(name, std::string(v));
}

void
JsonWriter::field(const std::string &name, double v)
{
    key(name);
    out_ << formatDouble(v);
}

void
JsonWriter::field(const std::string &name, bool v)
{
    key(name);
    out_ << (v ? "true" : "false");
}

void
JsonWriter::field(const std::string &name, std::uint64_t v)
{
    key(name);
    out_ << v;
}

void
JsonWriter::field(const std::string &name, std::int64_t v)
{
    key(name);
    out_ << v;
}

void
JsonWriter::field(const std::string &name, std::uint32_t v)
{
    key(name);
    out_ << v;
}

void
JsonWriter::value(const std::string &v)
{
    LB_ASSERT(!stack_.empty() && !stack_.back(),
              "JSON scalar element outside an array");
    separate();
    out_ << '"' << escape(v) << '"';
}

void
JsonWriter::value(double v)
{
    LB_ASSERT(!stack_.empty() && !stack_.back(),
              "JSON scalar element outside an array");
    separate();
    out_ << formatDouble(v);
}

} // namespace lbsim
