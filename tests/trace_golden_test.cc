/**
 * @file
 * Golden content hashes of the generated traces: every record's
 * address, reference id, issue delta, size, type and tags are pinned
 * through sim::hashTrace(), so any change to the loop-nest
 * interpreter or the issue-time sampler that moves a single record
 * fails here. Also checks that the streaming pipeline emits exactly
 * the records of the materializing one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "src/loopnest/generator.hh"
#include "src/sim/checkpoint.hh"
#include "src/trace/timing_model.hh"
#include "src/trace/trace_source.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;

struct Golden
{
    std::string name;
    std::size_t records;
    std::uint64_t hash;
};

/** Check @p t against @p g, naming the trace on failure. */
void
expectGolden(const trace::Trace &t, const Golden &g)
{
    EXPECT_EQ(t.size(), g.records) << g.name;
    EXPECT_EQ(sim::hashTrace(t), g.hash)
        << g.name << ": 0x" << std::hex << sim::hashTrace(t);
}

const Golden paperAtDefaultSeed[] = {
    {"MDG", 86292, 0xa9ae5c0489147568},
    {"BDN", 231674, 0xbb0ac451b6e35fab},
    {"DYF", 184992, 0xa2e7c3f753a46c6f},
    {"TRF", 64640, 0x3695a0e5841284e5},
    {"NAS", 210690, 0xed47f046f9a3f801},
    {"Slalom", 2097152, 0xc4ea535d4a178eae},
    {"LIV", 356376, 0x3c4605f40172deb1},
    {"MV", 501000, 0xad828545c8c03710},
    {"SpMV", 77310, 0xdc42354050dfd9eb},
};

const Golden paperAtSeed1[] = {
    {"MDG", 86292, 0xca3b4912d2e89bfc},
    {"BDN", 231674, 0xab68fa555dc66f54},
    {"DYF", 184992, 0x1be4f05e30b5ee42},
    {"TRF", 64640, 0xd298b9c3c1eea094},
    {"NAS", 210690, 0x177c29dcc8c839d9},
    {"Slalom", 2097152, 0x6b497eb83f1415bb},
    {"LIV", 356376, 0x026686a04d7e0e1e},
    {"MV", 501000, 0x9c47314dab307530},
    {"SpMV", 77310, 0x085b1fd1a171a32d},
};

const Golden kernelOnly[] = {
    {"ADM", 243840, 0x28056cfcc3331608},
    {"MDG", 80892, 0x56a02c560f8f5e4f},
    {"BDN", 183674, 0xd3c35850761ccea6},
    {"DYF", 184832, 0xf3220d97498cf21a},
    {"ARC", 425984, 0xd4c83891cebd8f42},
    {"FLO", 186000, 0x4587eebafab7e5d1},
    {"TRF", 64000, 0xb30c0815191b8bed},
};

TEST(TraceGolden, PaperBenchmarksAtTheDefaultSeed)
{
    const auto &list = workloads::paperBenchmarks();
    ASSERT_EQ(list.size(), std::size(paperAtDefaultSeed));
    for (std::size_t i = 0; i < list.size(); ++i) {
        ASSERT_EQ(list[i].name, paperAtDefaultSeed[i].name);
        expectGolden(workloads::makeTaggedTrace(list[i].build(), 0x7ac3),
                     paperAtDefaultSeed[i]);
    }
}

TEST(TraceGolden, PaperBenchmarksAtAnotherSeed)
{
    const auto &list = workloads::paperBenchmarks();
    ASSERT_EQ(list.size(), std::size(paperAtSeed1));
    for (std::size_t i = 0; i < list.size(); ++i)
        expectGolden(workloads::makeTaggedTrace(list[i].build(), 1),
                     paperAtSeed1[i]);
}

TEST(TraceGolden, KernelOnlyBenchmarks)
{
    const auto &list = workloads::kernelOnlyBenchmarks();
    ASSERT_EQ(list.size(), std::size(kernelOnly));
    for (std::size_t i = 0; i < list.size(); ++i) {
        ASSERT_EQ(list[i].name, kernelOnly[i].name);
        expectGolden(workloads::makeTaggedTrace(list[i].build()),
                     kernelOnly[i]);
    }
}

TEST(TraceGolden, Figure11BlockedAndCopiedKernels)
{
    expectGolden(workloads::makeTaggedTrace(
                     workloads::buildBlockedMv(1200, 40)),
                 {"BlockedMV-b40", 2952000, 0x658eb6e34766cb2a});
    expectGolden(workloads::makeTaggedTrace(
                     workloads::buildCopiedMm(80, 121, 16, true)),
                 {"CopiedMM-copy-ld121", 1555200, 0x219f534766691180});
}

TEST(TraceGolden, UntaggedGeneration)
{
    loopnest::Program p = workloads::buildSpMv(300, 6, 9);
    p.finalize();
    trace::TimingModel timing(0x5eed);
    expectGolden(loopnest::generateUntagged(p, timing),
                 {"SpMV-untagged", 6576, 0xefd38ea752ea8ea4});
}

TEST(TraceGolden, CustomIssueDistribution)
{
    const util::DiscreteDistribution deltas(
        {{1, 0.3}, {2, 0.0}, {7, 0.5}, {40, 0.2}});
    expectGolden(workloads::makeTaggedTraceWithTiming(
                     workloads::buildMdg(), deltas, 0xbeef),
                 {"MDG-custom-timing", 86292, 0xbe2e253ea722231a});
}

TEST(TraceGolden, StreamedTraceEqualsMaterializedTrace)
{
    for (const auto &b : workloads::paperBenchmarks()) {
        const trace::Trace whole = workloads::makeTaggedTrace(b.build(), 3);
        trace::GeneratorTraceSource src(
            b.name, [&b](const trace::RecordSink &sink) {
                workloads::streamTaggedTrace(b.build(), sink, 3);
            });
        const trace::Trace streamed = trace::drainToTrace(src);
        ASSERT_EQ(streamed.size(), whole.size()) << b.name;
        for (std::size_t i = 0; i < whole.size(); ++i)
            ASSERT_EQ(streamed[i], whole[i]) << b.name << " record " << i;
    }
}

} // namespace
