/**
 * @file
 * Stream-equality oracle for trace tests: a sink that records every
 * delivery verbatim, batch boundaries included, so two streams are
 * bit-identical iff their logs compare equal.
 */

#ifndef LPP_TESTS_TRACE_DELIVERY_LOG_HPP
#define LPP_TESTS_TRACE_DELIVERY_LOG_HPP

#include <string>
#include <vector>

#include "trace/sink.hpp"

namespace lpp::test {

/** Records every delivery verbatim, including batch boundaries. */
class DeliveryLog : public trace::TraceSink
{
  public:
    void
    onBlock(trace::BlockId b, uint32_t instrs) override
    {
        log.push_back("B" + std::to_string(b) + ":" +
                      std::to_string(instrs));
    }

    void
    onAccess(trace::Addr a) override
    {
        log.push_back("a" + std::to_string(a));
    }

    void
    onAccessBatch(const trace::Addr *addrs, size_t n) override
    {
        std::string s = "batch" + std::to_string(n) + ":";
        for (size_t i = 0; i < n; ++i)
            s += std::to_string(addrs[i]) + ",";
        log.push_back(s);
    }

    void
    onManualMarker(uint32_t id) override
    {
        log.push_back("M" + std::to_string(id));
    }

    void
    onPhaseMarker(trace::PhaseId p) override
    {
        log.push_back("P" + std::to_string(p));
    }

    void onEnd() override { log.push_back("E"); }

    std::vector<std::string> log;
};

} // namespace lpp::test

#endif // LPP_TESTS_TRACE_DELIVERY_LOG_HPP
