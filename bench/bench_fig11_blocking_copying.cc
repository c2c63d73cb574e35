/**
 * @file
 * Figure 11 reproduction: software-assisted caches as support for
 * software optimizations. 11a — AMAT of blocked matrix-vector
 * multiply across block sizes, Standard vs Soft; 11b — AMAT of
 * blocked matrix-matrix multiply with and without data copying as
 * the array leading dimension sweeps 116..126.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Figure 11",
                       "Blocking (11a) and data copying (11b)");

    std::cout << "\nFigure 11a: optimal block size for blocked "
                 "matrix-vector multiply (AMAT)\n\n";
    const std::int64_t n = 1200;
    const std::int64_t blocks[] = {10,  20,  30,  40,  50,
                                   100, 400, 600, 1200};
    const auto configs = bench::presetConfigs({"standard", "soft"});
    std::vector<harness::Workload> blocked;
    for (const auto b : blocks) {
        blocked.push_back({"BlockedMV-b" + std::to_string(b), [n, b] {
                               return workloads::makeTaggedTrace(
                                   workloads::buildBlockedMv(n, b));
                           }});
    }
    const auto blocked_cells = bench::derivedCells(blocked, configs);
    util::Table ta({"Block size", "Stand.", "Soft."});
    for (std::size_t w = 0; w < std::size(blocks); ++w) {
        const auto row = ta.addRow();
        ta.set(row, 0, std::to_string(blocks[w]));
        ta.setNumber(row, 1, blocked_cells[w][0].amat());
        ta.setNumber(row, 2, blocked_cells[w][1].amat());
    }
    ta.print(std::cout);

    std::cout << "\nFigure 11b: data copying for blocked matrix "
                 "multiply (AMAT), leading dimension sweep\n\n";
    const std::int64_t mm_n = 80;
    const std::int64_t mm_block = 16;
    const std::int64_t first_ld = 116;
    const std::int64_t last_ld = 126;
    std::vector<harness::Workload> copied; // (nocopy, copy) per ld
    for (std::int64_t ld = first_ld; ld <= last_ld; ++ld) {
        for (const bool copy : {false, true}) {
            copied.push_back(
                {std::string(copy ? "CopiedMM-copy-ld"
                                  : "CopiedMM-nocopy-ld") +
                     std::to_string(ld),
                 [mm_n, ld, mm_block, copy] {
                     return workloads::makeTaggedTrace(
                         workloads::buildCopiedMm(mm_n, ld, mm_block,
                                                  copy));
                 }});
        }
    }
    const auto copied_cells = bench::derivedCells(copied, configs);
    util::Table tb({"Leading dim", "NoCopy (stand.)", "Copy (stand.)",
                    "NoCopy (soft.)", "Copy (soft.)"});
    for (std::int64_t ld = first_ld; ld <= last_ld; ++ld) {
        const auto w = static_cast<std::size_t>(2 * (ld - first_ld));
        const auto row = tb.addRow();
        tb.set(row, 0, std::to_string(ld));
        tb.setNumber(row, 1, copied_cells[w][0].amat());
        tb.setNumber(row, 2, copied_cells[w + 1][0].amat());
        tb.setNumber(row, 3, copied_cells[w][1].amat());
        tb.setNumber(row, 4, copied_cells[w + 1][1].amat());
    }
    tb.print(std::cout);

    std::cout << "\nPaper shape check: software control tolerates "
                 "larger block sizes before\npollution hurts; copying "
                 "flattens the leading-dimension sensitivity, and\n"
                 "software assistance lowers the copying cost.\n";
    return 0;
}
