/**
 * @file
 * Related-work comparison (paper Section 5): stream buffers (Jouppi
 * 1990) against the software-assisted design. The paper argues
 * stream buffers fail when a loop body carries more miss-inducing
 * streams than there are buffers; the benchmark suite (LIV's
 * multi-stream kernels, the stencil codes) exercises exactly that.
 */

#include <iostream>

#include "bench_common.hh"
#include "src/core/column_assoc.hh"
#include "src/core/stream_buffer.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Section 5 related work",
                       "Stream buffers vs software assistance (AMAT)");

    std::cout << '\n';
    util::Table table({"Benchmark", "Stand.", "StreamBufs x1",
                       "StreamBufs x4", "StreamBufs x8",
                       "Column-assoc", "Soft.",
                       "Soft.+Prefetching"});
    const auto suite = bench::suiteWorkloads();
    const auto presets = bench::exactCells(
        suite, bench::presetConfigs({"standard", "soft", "soft-prefetch"}));
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const auto &t = bench::benchmarkTrace(suite[w].name);
        const auto row = table.addRow();
        table.set(row, 0, suite[w].name);
        table.setNumber(row, 1, presets[w][0].amat());
        std::size_t col = 2;
        for (const std::uint32_t n : {1u, 4u, 8u}) {
            core::StreamBufferConfig cfg;
            cfg.numBuffers = n;
            table.setNumber(row, col++,
                            core::simulateStreamBuffers(t, cfg).amat());
        }
        table.setNumber(
            row, 5,
            core::simulateColumnAssoc(t, core::ColumnAssocConfig{})
                .amat());
        table.setNumber(row, 6, presets[w][1].amat());
        table.setNumber(row, 7, presets[w][2].amat());
    }
    table.print(std::cout);

    std::cout << "\nPaper shape check: one stream buffer thrashes on "
                 "interleaved streams; four\nrecover most streaming "
                 "misses; column associativity removes conflict "
                 "misses\nbut not pollution; the software-assisted "
                 "design protects temporal data and\nneeds no buffer "
                 "per stream.\n";
    return 0;
}
