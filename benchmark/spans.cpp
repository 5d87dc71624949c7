#include <algorithm>
#include <chrono>
#include <fstream>

#include "lpp_bench.hpp"

namespace lppbench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::string
Span::layer() const
{
    size_t dot = name.find('.');
    return dot == std::string::npos ? "bench" : name.substr(0, dot);
}

Tracer::Scope::Scope(Tracer *tracer, const char *name) : t(tracer)
{
    if (t)
        id = t->open(name);
}

Tracer::Scope::~Scope()
{
    if (t)
        t->close(id);
}

void
Tracer::Scope::count(uint64_t accesses, uint64_t bytes)
{
    if (!t)
        return;
    t->list[id].accesses += accesses;
    t->list[id].bytes += bytes;
}

void
Tracer::setContext(std::string program_name, uint64_t op)
{
    program = std::move(program_name);
    opId = op;
}

int32_t
Tracer::open(const char *name)
{
    Span s;
    s.name = name;
    s.program = program;
    s.op = opId;
    s.parent = stack.empty() ? -1 : stack.back();
    auto id = static_cast<int32_t>(list.size());
    list.push_back(std::move(s));
    stack.push_back(id);
    // Stamp last, so the span's own bookkeeping is not inside it.
    list[id].startNs = nowNs();
    return id;
}

void
Tracer::close(int32_t id)
{
    list[id].endNs = nowNs();
    stack.pop_back();
}

std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[s.parent] -= s.endNs - s.startNs;
    return self;
}

bool
properlyNested(const std::vector<Span> &spans, std::string *why)
{
    // Children are recorded in start order, so each parent's previous
    // child (if any) must have ended before the next one starts.
    std::vector<int64_t> lastChildEnd(spans.size() + 1, INT64_MIN);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto fail = [&](const char *what) {
            if (why)
                *why = "span " + std::to_string(i) + " (" + s.name +
                       "): " + what;
            return false;
        };
        if (s.endNs < s.startNs)
            return fail("ends before it starts");
        size_t slot = s.parent < 0 ? spans.size() : size_t(s.parent);
        if (s.parent >= 0) {
            if (size_t(s.parent) >= i)
                return fail("parent recorded after the child");
            const Span &p = spans[s.parent];
            if (s.startNs < p.startNs || s.endNs > p.endNs)
                return fail("outside its parent");
        }
        if (s.startNs < lastChildEnd[slot])
            return fail("overlaps its previous sibling");
        lastChildEnd[slot] = s.endNs;
    }
    return true;
}

bool
writeChromeTrace(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"name\": " << jsonString(s.name)
            << ", \"cat\": " << jsonString(s.layer())
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
            << ", \"ts\": " << jsonNumber(double(s.startNs - origin) / 1e3)
            << ", \"dur\": " << jsonNumber(double(s.endNs - s.startNs) / 1e3)
            << ", \"args\": {\"program\": " << jsonString(s.program)
            << ", \"op\": " << s.op << ", \"span\": " << i
            << ", \"parent\": " << s.parent
            << ", \"accesses\": " << s.accesses
            << ", \"bytes\": " << s.bytes << "}}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return bool(out);
}

} // namespace lppbench
