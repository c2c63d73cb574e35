/**
 * @file
 * Robustness experiment for the paper's safety claim: "note that
 * software-assisted data caches perform better than standard caches
 * in any case, so software-assistance appears to be safe"
 * (Section 3.2). We stress the claim by stripping and corrupting the
 * software tags and checking whether the assisted cache can fall
 * below the standard baseline.
 */

#include <iostream>
#include <utility>

#include "bench_common.hh"
#include "src/analysis/tag_transform.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Tag-robustness study",
                       "Soft. AMAT under stripped / corrupted tags "
                       "vs Stand.");

    std::cout << "\nAMAT of Soft. as the tag quality degrades "
                 "(flip fraction = share of static references whose "
                 "tags are inverted)\n\n";
    util::Table table({"Benchmark", "Stand.", "Soft.", "no temp",
                       "no spat", "no tags", "flip 10%", "flip 25%",
                       "flip 50%", "flip 100%"});
    const auto suite = bench::suiteWorkloads();
    const auto stand =
        bench::exactCells(suite, bench::presetConfigs({"standard"}));
    const auto flip = [](double fraction) {
        return [fraction](const trace::Trace &t) {
            return analysis::corruptTags(t, fraction);
        };
    };
    const std::pair<const char *, bench::TraceTransform> variants[] = {
        {"tags", [](const trace::Trace &t) { return t; }},
        {"notemp", analysis::stripTemporalTags},
        {"nospat", analysis::stripSpatialTags},
        {"notags", analysis::stripAllTags},
        {"flip10", flip(0.10)},
        {"flip25", flip(0.25)},
        {"flip50", flip(0.50)},
        {"flip100", flip(1.00)},
    };
    std::vector<harness::Workload> degraded;
    for (const auto &w : suite) {
        for (const auto &[variant, transform] : variants)
            degraded.push_back(bench::variantOf(w.name, variant, transform));
    }
    const auto soft =
        bench::derivedCells(degraded, bench::presetConfigs({"soft"}));
    std::size_t unsafe = 0;
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const double base = stand[w][0].amat();
        const auto row = table.addRow();
        table.set(row, 0, suite[w].name);
        table.setNumber(row, 1, base);
        for (std::size_t i = 0; i < std::size(variants); ++i) {
            const double amat = soft[w * std::size(variants) + i][0].amat();
            table.setNumber(row, i + 2, amat);
            if (amat > base * 1.02)
                ++unsafe;
        }
    }
    table.print(std::cout);

    std::cout << "\nCells exceeding Stand. by more than 2%: " << unsafe
              << "\nWith all tags stripped, Soft. degenerates to a "
                 "victim cache and can only\nhelp; corrupted tags can "
                 "hurt by fetching useless virtual lines and\n"
                 "protecting dead data, which bounds the safety claim "
                 "to *correct* (even if\nincomplete) compiler "
                 "information.\n";
    return 0;
}
