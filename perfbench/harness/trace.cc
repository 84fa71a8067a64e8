#include "harness/trace.hh"

#include <fstream>

namespace perfbench
{

std::int64_t
SpanLog::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

ScopedSpan::ScopedSpan(SpanLog &log, const char *layer, const char *phase,
                       std::size_t cell)
    : log_(log)
{
    SpanLog::Open open;
    open.span.layer = layer;
    open.span.phase = phase;
    open.span.cell = cell;
    open.span.depth = static_cast<int>(log.open_.size());
    open.span.startNs = log.now();
    log.open_.push_back(open);
}

ScopedSpan::~ScopedSpan()
{
    SpanLog::Open open = log_.open_.back();
    log_.open_.pop_back();
    open.span.durNs = log_.now() - open.span.startNs;
    open.span.selfNs = open.span.durNs - open.childNs;
    if (!log_.open_.empty())
        log_.open_.back().childNs += open.span.durNs;
    log_.spans_.push_back(open.span);
}

std::int64_t
SelfTimes::sum() const
{
    std::int64_t total = 0;
    for (const auto &[layer, ns] : byLayer)
        total += ns;
    return total;
}

SelfTimes
selfTimes(const std::vector<SpanLog> &logs)
{
    SelfTimes out;
    for (const SpanLog &log : logs) {
        for (const Span &s : log.spans()) {
            out.byLayer[s.layer] += s.selfNs;
            if (s.depth == 0)
                out.rootNs += s.durNs;
        }
    }
    return out;
}

namespace
{

ssp::Json
threadName(std::uint64_t tid, const std::string &name)
{
    ssp::Json args = ssp::Json::object();
    args.set("name", ssp::Json::str(name));
    ssp::Json ev = ssp::Json::object();
    ev.set("name", ssp::Json::str("thread_name"));
    ev.set("ph", ssp::Json::str("M"));
    ev.set("pid", ssp::Json::number(std::uint64_t{1}));
    ev.set("tid", ssp::Json::number(tid));
    ev.set("args", std::move(args));
    return ev;
}

ssp::Json
completeEvent(const Span &s, std::uint64_t tid, const std::string &id)
{
    const std::string layer = s.layer;
    ssp::Json args = ssp::Json::object();
    args.set("id", ssp::Json::str(id));
    args.set("layer", ssp::Json::str(layer));
    args.set("self_us", ssp::Json::number(static_cast<double>(s.selfNs) /
                                          1000.0));
    ssp::Json ev = ssp::Json::object();
    ev.set("name", ssp::Json::str(s.phase));
    ev.set("cat", ssp::Json::str(layer.substr(0, layer.find('.'))));
    ev.set("ph", ssp::Json::str("X"));
    ev.set("ts", ssp::Json::number(static_cast<double>(s.startNs) /
                                   1000.0));
    ev.set("dur", ssp::Json::number(static_cast<double>(s.durNs) / 1000.0));
    ev.set("pid", ssp::Json::number(std::uint64_t{1}));
    ev.set("tid", ssp::Json::number(tid));
    ev.set("args", std::move(args));
    return ev;
}

} // namespace

bool
writeChromeTrace(const std::string &path, const std::vector<SpanLog> &logs,
                 const SpanLog &main_log,
                 const std::vector<std::string> &cell_labels,
                 const ssp::Json &other_data)
{
    ssp::Json events = ssp::Json::array();
    const std::uint64_t main_tid = logs.size();
    for (std::uint64_t w = 0; w < logs.size(); ++w)
        events.push(threadName(w, "worker " + std::to_string(w)));
    events.push(threadName(main_tid, "sweep"));
    for (std::uint64_t w = 0; w < logs.size(); ++w) {
        for (const Span &s : logs[w].spans())
            events.push(completeEvent(s, w, cell_labels.at(s.cell)));
    }
    for (const Span &s : main_log.spans())
        events.push(completeEvent(s, main_tid, "sweep"));

    ssp::Json doc = ssp::Json::object();
    doc.set("displayTimeUnit", ssp::Json::str("ms"));
    doc.set("otherData", other_data);
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.dump(0) << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
