/**
 * @file
 * Figure 9 reproduction: influence of cache size and associativity.
 * 9a — percentage of misses removed by software assistance for 8-KB
 * (32-byte lines) through 64-KB (64-byte lines) caches; 9b — AMAT of
 * 2-way caches with and without (simplified) software control.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Figure 9",
                       "Cache size (9a) and set-associativity (9b)");

    struct SizePoint
    {
        std::uint64_t bytes;
        std::uint32_t line;
        const char *label;
    };
    const SizePoint points[] = {
        {8 * 1024, 32, "Cs=8k,Ls=32"},
        {16 * 1024, 64, "Cs=16k,Ls=64"},
        {32 * 1024, 64, "Cs=32k,Ls=64"},
        {64 * 1024, 64, "Cs=64k,Ls=64"},
    };

    std::cout << "\nFigure 9a: % of misses removed by software "
                 "control\n\n";
    std::vector<std::string> headers{"Benchmark"};
    const auto suite = bench::suiteWorkloads();
    std::vector<bench::CellStats> cells; // (standard, soft) per point
    for (const auto &pt : points) {
        headers.push_back(pt.label);
        // One request per geometry: the exact cells of one geometry
        // share a three-C shadow pass per workload, alive until the
        // request returns.
        cells.push_back(bench::exactCells(
            suite, {core::scaledConfig(core::presets().get("standard"),
                                       pt.bytes, pt.line),
                    core::scaledConfig(core::presets().get("soft"),
                                       pt.bytes, pt.line)}));
    }
    util::Table table(std::move(headers));
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const auto row = table.addRow();
        table.set(row, 0, suite[w].name);
        for (std::size_t c = 0; c < std::size(points); ++c) {
            const auto &stand = cells[c][w][0];
            const auto &soft = cells[c][w][1];
            const double removed =
                stand.misses == 0
                    ? 0.0
                    : 100.0 * (1.0 - static_cast<double>(soft.misses) /
                                         static_cast<double>(
                                             stand.misses));
            table.setNumber(row, c + 1, removed, 1);
        }
    }
    table.print(std::cout);

    std::cout << "\nFigure 9 lattice: standard-cache miss ratio, "
                 "size x associativity\n(served by one stack-distance "
                 "pass per benchmark, DESIGN.md §11)\n\n";
    std::vector<core::Config> lattice;
    for (const std::uint64_t kb : {4, 8, 16, 32}) {
        for (const std::uint32_t ways : {1u, 2u}) {
            core::Config cfg = core::scaledConfig(
                core::presets().get("standard"), kb * 1024, 32);
            cfg.assoc = ways;
            cfg.name += "/" + std::to_string(ways) + "w";
            cfg.validate();
            lattice.push_back(std::move(cfg));
        }
    }
    bench::suiteTable(lattice, harness::missRatioMetric())
        .print(std::cout);

    std::cout << "\nFigure 9b: software control for set-associative "
                 "caches (AMAT)\n\n";
    bench::suiteTable(
        bench::presetConfigs({"2way", "2way-victim", "soft-2way",
                              "simplified-soft-2way"}),
        bench::amatOf)
        .print(std::cout);

    std::cout << "\nPaper shape check: larger caches still benefit, "
                 "but less (working sets fit);\nvictim caching is "
                 "mostly redundant with 2-way associativity; the "
                 "cheap\nreplacement-priority variant performs close to "
                 "the full 2-way mechanism.\n";
    return 0;
}
