#include <bit>
#include <stdexcept>

#include "lpp_bench.hpp"
#include "trace/codec.hpp"
#include "workloads/registry.hpp"

namespace lppbench {

namespace {

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
deriveSeed(uint64_t bench_seed, uint64_t round, uint64_t program_seed)
{
    if (bench_seed == 0 && round == 0)
        return program_seed;
    return splitmix64(splitmix64(bench_seed) ^
                      splitmix64(round + 0x5eedULL) ^ program_seed);
}

SeededProgram::SeededProgram(const std::string &name, uint64_t bench_seed,
                             uint64_t train_round, uint64_t ref_round)
    : inner(lpp::workloads::create(name))
{
    if (!inner)
        throw std::invalid_argument("unknown program '" + name + "'");
    train = inner->trainInput();
    ref = inner->refInput();
    train.seed = deriveSeed(bench_seed, train_round, train.seed);
    ref.seed = deriveSeed(bench_seed, ref_round, ref.seed);
}

uint64_t
storeParamsHash(const lpp::workloads::Workload &workload,
                const lpp::workloads::WorkloadInput &input)
{
    std::vector<uint8_t> buf;
    auto put64 = [&buf](uint64_t v) {
        for (int b = 0; b < 8; ++b)
            buf.push_back(static_cast<uint8_t>(v >> (8 * b)));
    };
    auto putStr = [&buf, &put64](const std::string &s) {
        put64(s.size());
        buf.insert(buf.end(), s.begin(), s.end());
    };
    put64(1); // hash layout version
    putStr(workload.name());
    putStr(workload.description());
    put64(input.seed);
    put64(std::bit_cast<uint64_t>(input.scale));
    for (const auto &a : workload.arrays(input)) {
        putStr(a.name);
        put64(a.base);
        put64(a.elements);
        put64(a.elemBytes);
    }
    return lpp::trace::contentHash64(buf.data(), buf.size());
}

} // namespace lppbench
