/**
 * @file
 * Minimal JSON writer.
 *
 * The harness emits machine-readable experiment results
 * (BENCH_<name>.json) and hang reports; the writer is the small
 * dependency-free core that keeps the output valid: it tracks
 * object/array nesting, inserts commas, escapes strings, and formats
 * doubles deterministically (non-finite values become null, which JSON
 * lacks).
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace lbsim
{

/** Streaming JSON emitter with two-space pretty printing. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out);

    /** Containers. beginObject()/beginArray() open an anonymous value;
     *  the Field variants open one under @p key inside an object. */
    void beginObject();
    void beginObjectField(const std::string &key);
    void endObject();
    void beginArray();
    void beginArrayField(const std::string &key);
    void endArray();

    /** Scalar fields inside the current object. */
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);
    void field(const std::string &key, double value);
    void field(const std::string &key, bool value);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, std::int64_t value);
    void field(const std::string &key, std::uint32_t value);

    /** Scalar elements inside the current array. */
    void value(const std::string &value);
    void value(double value);

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &text);

  private:
    void indent();
    void separate();
    void key(const std::string &key);

    std::ostream &out_;
    /** true = object (expects keys), false = array. */
    std::vector<bool> stack_;
    /** Elements already written at each nesting level. */
    std::vector<std::size_t> counts_;
};

} // namespace lbsim
