/**
 * @file
 * Tag-quality headroom experiment, extending Figure 10a's question:
 * how much of the gap left by the simple compile-time analysis could
 * better information recover? Compares AMAT under no tags, the
 * Section-2.3 compiler tags, and profile-derived tags (which see
 * through CALLs, aliasing and indirection).
 */

#include <iostream>

#include "bench_common.hh"
#include "src/util/stats.hh"
#include "src/analysis/tag_transform.hh"
#include "src/locality/profile_tagger.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Tag-quality headroom (extends Figure 10a)",
                       "No tags vs compiler tags vs profile tags "
                       "(AMAT, Soft.)");

    std::cout << '\n';
    util::Table table({"Benchmark", "Stand.", "Soft. no tags",
                       "Soft. compiler tags", "Soft. profile tags",
                       "headroom recovered"});
    const auto suite = bench::suiteWorkloads();
    std::vector<harness::Workload> retagged; // (no tags, profile) each
    for (const auto &w : suite) {
        retagged.push_back(
            bench::variantOf(w.name, "notags", analysis::stripAllTags));
        retagged.push_back(bench::variantOf(
            w.name, "profiletags", [](const trace::Trace &t) {
                return locality::retagFromProfile(t);
            }));
    }
    // The retagged cells run first: their builds generate the suite
    // traces in suite order, so each variant is built while only the
    // traces before it are cached, not all nine.
    const auto retagged_cells =
        bench::derivedCells(retagged, bench::presetConfigs({"soft"}));
    const auto informed =
        bench::exactCells(suite, bench::presetConfigs({"standard", "soft"}));
    for (std::size_t w = 0; w < suite.size(); ++w) {
        const double stand = informed[w][0].amat();
        const double none = retagged_cells[2 * w][0].amat();
        const double compiler = informed[w][1].amat();
        const double profile = retagged_cells[2 * w + 1][0].amat();
        const auto row = table.addRow();
        table.set(row, 0, suite[w].name);
        table.setNumber(row, 1, stand);
        table.setNumber(row, 2, none);
        table.setNumber(row, 3, compiler);
        table.setNumber(row, 4, profile);
        // Of the distance from no-tags to the better of the two
        // informed variants, how much does the compiler already get?
        const double best = std::min(compiler, profile);
        const double recovered =
            none - best > 1e-9 ? (none - compiler) / (none - best)
                               : 1.0;
        table.set(row, 5, util::formatPercent(recovered));
    }
    table.print(std::cout);

    std::cout << "\nExpected: profile tags beat compiler tags most "
                 "on the CALL-poisoned\ndusty-deck proxies (MDG, BDN, "
                 "TRF) — the paper's Figure-10a observation that\n"
                 "instrumentation coverage, not the mechanisms, is "
                 "the limiter.\n";
    return 0;
}
