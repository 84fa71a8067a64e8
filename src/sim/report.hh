/**
 * @file
 * Report output for the benches: plain-text tables (fixed-width columns,
 * a header, and normalized-value helpers matching the paper's
 * "normalized to UNDO-LOG" presentation) and a small JSON value type
 * used to emit/parse the machine-readable BENCH_*.json sweep reports.
 */

#ifndef SSP_SIM_REPORT_HH
#define SSP_SIM_REPORT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ssp
{

/** Column-aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a row (must match the header width). */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns. */
    std::string render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits decimals. */
std::string fmtDouble(double v, int digits = 2);

/** Format "v (normalized to base)" as the ratio v/base. */
std::string fmtNormalized(double v, double base, int digits = 2);

/** Section banner used by the benches. */
std::string banner(const std::string &title);

/**
 * A minimal JSON document: null / bool / number / string / array /
 * object, with insertion-ordered object keys so emitted reports are
 * byte-stable.  Numbers render with the shortest decimal form that
 * round-trips through a double, so dump() -> parse() -> dump() is the
 * identity — the property the sweep determinism tests rely on.
 *
 * Malformed input to parse() and type-mismatched accessors raise
 * ssp_fatal (a thrown std::runtime_error).
 */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** Default-constructs null. */
    Json();
    /** Copies deep; a moved-from value is null. */
    Json(const Json &other);
    Json(Json &&other) noexcept;
    Json &operator=(const Json &other);
    Json &operator=(Json &&other) noexcept;
    ~Json();

    static Json boolean(bool v);
    static Json number(double v);
    static Json number(std::uint64_t v);
    static Json str(std::string v);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** @{ Typed accessors; fatal when the kind does not match. */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;
    /** @} */

    /** Array: append an element. @pre array. */
    void push(Json v);

    /** Number of array elements or object members. */
    std::size_t size() const;

    /** Array element access. @pre array and @p i in range. */
    const Json &at(std::size_t i) const;

    /** Object: set (insert or overwrite) a member. @pre object. */
    void set(const std::string &key, Json v);

    /** Object: true if the member exists. @pre object. */
    bool has(const std::string &key) const;

    /** Object member access; fatal when missing. @pre object. */
    const Json &operator[](const std::string &key) const;

    /** Object members in insertion order. @pre object. */
    const std::vector<std::pair<std::string, Json>> &members() const;

    /**
     * Serialize. @p indent 0 emits one compact line; > 0 pretty-prints
     * with that many spaces per nesting level.
     */
    std::string dump(int indent = 0) const;

    /** Parse a complete JSON document; fatal on malformed input. */
    static Json parse(const std::string &text);

  private:
    /** A string's, array's or object's contents (see report.cc). */
    struct Payload;

    /** Trim a finished array's or object's spare capacity. */
    void shrinkToFit();

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0;
    /**
     * Set for strings, arrays and objects only, so a number, bool or
     * null (most of a report's values) costs sizeof(Json) alone.  A
     * caller may keep a report per sweep (perfbench keeps one per
     * pass), so its size is that caller's memory growth: about
     * 0.7 MiB for the fault grid's 162 cells.
     */
    std::unique_ptr<Payload> payload_;
};

/** Render a double with the shortest form that round-trips exactly. */
std::string jsonNumberToString(double v);

} // namespace ssp

#endif // SSP_SIM_REPORT_HH
