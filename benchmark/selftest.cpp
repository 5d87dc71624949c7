/**
 * @file
 * lpp_bench --selftest: checks of the benchmark's own logic, and that
 * the metrics it reports are exactly the ones BENCHMARK.json declares.
 */

#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "lpp_bench.hpp"

namespace lppbench {

namespace {

/** Just enough JSON to read BENCHMARK.json. */
struct Json
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    double number = 0;
    std::string text;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> fields;

    const Json *
    get(const std::string &key) const
    {
        for (const auto &[k, v] : fields)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string s) : src(std::move(s)) {}

    std::optional<Json>
    parse()
    {
        std::optional<Json> v = value();
        skip();
        if (!v || pos != src.size())
            return std::nullopt;
        return v;
    }

  private:
    void
    skip()
    {
        while (pos < src.size() && std::isspace((unsigned char)src[pos]))
            ++pos;
    }

    bool
    eat(char c)
    {
        skip();
        if (pos < src.size() && src[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    std::optional<std::string>
    string()
    {
        if (!eat('"'))
            return std::nullopt;
        std::string out;
        while (pos < src.size() && src[pos] != '"') {
            if (src[pos] == '\\') {
                if (++pos >= src.size())
                    return std::nullopt;
                char c = src[pos];
                out += c == 'n' ? '\n' : c == 't' ? '\t' : c;
            } else {
                out += src[pos];
            }
            ++pos;
        }
        if (pos >= src.size())
            return std::nullopt;
        ++pos;
        return out;
    }

    std::optional<Json>
    value()
    {
        skip();
        if (pos >= src.size())
            return std::nullopt;
        Json v;
        char c = src[pos];
        if (c == '"') {
            auto s = string();
            if (!s)
                return std::nullopt;
            v.type = Json::Type::String;
            v.text = *s;
        } else if (c == '[') {
            ++pos;
            v.type = Json::Type::Array;
            if (!eat(']')) {
                do {
                    auto item = value();
                    if (!item)
                        return std::nullopt;
                    v.items.push_back(*item);
                } while (eat(','));
                if (!eat(']'))
                    return std::nullopt;
            }
        } else if (c == '{') {
            ++pos;
            v.type = Json::Type::Object;
            if (!eat('}')) {
                do {
                    auto key = string();
                    if (!key || !eat(':'))
                        return std::nullopt;
                    auto item = value();
                    if (!item)
                        return std::nullopt;
                    v.fields.emplace_back(*key, *item);
                } while (eat(','));
                if (!eat('}'))
                    return std::nullopt;
            }
        } else if (src.compare(pos, 4, "true") == 0 ||
                   src.compare(pos, 5, "false") == 0 ||
                   src.compare(pos, 4, "null") == 0) {
            v.type = c == 'n' ? Json::Type::Null : Json::Type::Bool;
            pos += c == 'f' ? 5 : 4;
        } else {
            size_t used = 0;
            try {
                v.number = std::stod(src.substr(pos), &used);
            } catch (const std::exception &) {
                return std::nullopt;
            }
            v.type = Json::Type::Number;
            pos += used;
        }
        return v;
    }

    std::string src;
    size_t pos = 0;
};

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

void
checkPercentileRule()
{
    check(tailPercentile(45) == 75, "45 ops report p50 and p75");
    check(tailPercentile(18) == 50, "18 ops report p50 only");
    check(tailPercentile(40) == 75 && tailPercentile(39) == 50,
          "p75 needs ten ops beyond it");
    check(tailPercentile(100) == 90, "100 ops report p90");
    check(percentile({4, 1, 3, 2}, 50) == 2.5 &&
              percentile({1, 2, 3, 4, 5}, 75) == 4.0,
          "percentiles interpolate linearly");
}

void
checkSelfTime()
{
    auto span = [](const char *name, int64_t start, int64_t end,
                   int32_t parent) {
        Span s;
        s.name = name;
        s.startNs = start;
        s.endNs = end;
        s.parent = parent;
        return s;
    };
    // op [0,100] > a [10,40] > c [20,30];  op > b [50,90]
    std::vector<Span> spans = {span("op", 0, 100, -1),
                               span("reuse.a", 10, 40, 0),
                               span("reuse.c", 20, 30, 1),
                               span("core.b", 50, 90, 0)};
    check(selfTimes(spans) == std::vector<int64_t>{30, 20, 10, 40},
          "self time subtracts direct children only");
    std::string why;
    check(properlyNested(spans, &why), "nested spans pass the nesting check");
    spans[3].startNs = 35; // overlaps its sibling a
    check(!properlyNested(spans, &why), "overlapping siblings are caught");
    spans[3] = span("core.b", 50, 110, 0); // leaves its parent
    check(!properlyNested(spans, &why), "a child outside its parent is caught");
    check(spans[1].layer() == "reuse" && spans[0].layer() == "bench",
          "a span's layer is its name's module prefix");
}

void
checkDigests()
{
    lpp::core::WorkloadEvaluation ev;
    ev.name = "demo";
    for (uint32_t phase : {1u, 2u, 1u}) {
        lpp::core::ExecutionRecord e;
        e.phase = phase;
        e.instructions = 1000;
        e.accesses = 100;
        ev.ref.replay.executions.push_back(e);
    }
    uint64_t before = digestEvaluation(ev);
    check(digestEvaluation(ev) == before, "evaluation digest is stable");
    ev.ref.replay.executions[1].phase = 3;
    check(digestEvaluation(ev) != before,
          "evaluation digest changes when one phase id flips");

    Prediction p;
    p.ref.replay = ev.ref.replay;
    before = digestPrediction(p);
    p.ref.replay.executions[0].phase = 7;
    check(digestPrediction(p) != before,
          "prediction digest changes when one phase id flips");

    lpp::core::AnalysisResult a;
    a.detection.selection.executions.resize(3);
    before = digestAnalysis(a);
    a.detection.selection.executions[2].phase = 1;
    check(digestAnalysis(a) != before,
          "analysis digest changes when one phase id flips");
}

void
checkDeclaredMetrics(const std::string &path,
                     const std::vector<std::string> &workloads)
{
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricSpec &m : *list)
            check(validMetricName(m.name),
                  std::string("metric name ") + m.name +
                      " matches [A-Za-z0-9_.-]+");
    check(!validMetricName("bad name") && !validMetricName(""),
          "illegal metric names are rejected");

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::optional<Json> doc = JsonParser(text.str()).parse();
    check(in.is_open() && doc && doc->type == Json::Type::Object,
          path + " parses");
    if (!doc)
        return;

    auto declared = [&](const char *section,
                        const std::vector<MetricSpec> &specs, bool bounds) {
        const Json *arr = doc->get(section);
        bool same = arr && arr->items.size() == specs.size();
        for (size_t i = 0; same && i < specs.size(); ++i) {
            const Json &m = arr->items[i];
            const Json *name = m.get("name");
            const Json *unit = m.get("unit");
            const Json *better = m.get("better");
            const Json *bound = m.get("bound");
            same = name && name->text == specs[i].name && unit &&
                   unit->text == specs[i].unit && better &&
                   better->text == specs[i].better &&
                   (!bounds || (bound && bound->number == specs[i].bound));
        }
        check(same, std::string("reported ") + section +
                        " metrics match the declared ones in " + path);
    };
    declared("end_to_end", endToEndMetrics(), true);
    declared("per_layer", perLayerMetrics(), false);

    const Json *wl = doc->get("workloads");
    bool same = wl && wl->items.size() == workloads.size();
    for (size_t i = 0; same && i < workloads.size(); ++i) {
        const Json *name = wl->items[i].get("name");
        same = name && name->text == workloads[i];
    }
    check(same, "declared workloads are the benchmark's workloads");
}

} // namespace

int
selfTest(const std::string &benchmark_json,
         const std::vector<std::string> &workloads)
{
    checkPercentileRule();
    checkSelfTime();
    checkDigests();
    checkDeclaredMetrics(benchmark_json, workloads);
    std::printf("%s: %d failure(s)\n", failures ? "selftest FAILED" : "selftest ok",
                failures);
    return failures ? 1 : 0;
}

} // namespace lppbench
