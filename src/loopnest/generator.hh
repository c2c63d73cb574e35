/**
 * @file
 * The loop-nest interpreter: executes a finalized Program and emits
 * the memory-reference trace, attaching the software tags computed by
 * the locality analyzer and an issue-time delta sampled from the
 * timing model — the reproduction of the paper's instrumented trace
 * extraction (Section 3.1).
 */

#ifndef SAC_LOOPNEST_GENERATOR_HH
#define SAC_LOOPNEST_GENERATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/loopnest/program.hh"
#include "src/trace/timing_model.hh"
#include "src/trace/trace.hh"
#include "src/trace/trace_source.hh"

namespace sac {
namespace loopnest {

/** The software tags of one static reference. */
struct Tags
{
    bool temporal = false;
    bool spatial = false;
    /**
     * Spatial level for the variable-virtual-line extension: the
     * virtual line spans 2^spatialLevel physical lines (0 when the
     * reference is not spatial).
     */
    std::uint8_t spatialLevel = 0;

    bool operator==(const Tags &) const = default;
};

/** Tags for every static reference, indexed by RefId. */
using TagVector = std::vector<Tags>;

/**
 * Executes a Program, emitting one trace Record per dynamic array
 * reference (including indirect-subscript and indirect-bound loads).
 *
 * Construction lowers the statement tree once into flat arrays: every
 * affine expression becomes a constant plus a range of (variable,
 * coefficient) terms, every reference its array base, per-dimension
 * extents and strides and a record template carrying its tags. A run
 * first counts the records the nest will emit (no emission, no RNG
 * draw; the record cap is checked here, before anything is
 * allocated), then executes the lowered tree with no per-record
 * allocation or indirect call on the materializing path.
 */
class TraceGenerator
{
  public:
    /**
     * @param program finalized program to execute
     * @param tags per-reference software tags (size == refCount());
     *        pass an all-false vector for untagged tracing
     * @param timing issue-time delta sampler
     */
    TraceGenerator(const Program &program, const TagVector &tags,
                   trace::TimingModel &timing);

    /**
     * Run the program and append its references to @p out, which is
     * first reserved to the exact final size.
     * @param out destination trace (name is set to the program name)
     * @param max_records safety cap; generation panics, before
     *        emitting anything, when the nest would exceed it
     */
    void run(trace::Trace &out,
             std::uint64_t max_records = defaultMaxRecords);

    /**
     * Run the program, emitting each reference into @p sink as it is
     * produced — the streaming entry: nothing is materialized here,
     * so trace length does not bound memory.
     */
    void run(const trace::RecordSink &sink,
             std::uint64_t max_records = defaultMaxRecords);

    /** Default record-count safety cap. */
    static constexpr std::uint64_t defaultMaxRecords = 200'000'000;

  private:
    /** An affine expression: constant + sum of terms_[first, +count). */
    struct Linear
    {
        std::int64_t constant = 0;
        std::uint32_t first = 0;
        std::uint32_t count = 0;
    };

    /** An index-array load (indirect subscript or bound part). */
    struct Indirect
    {
        Linear index;
        const ArrayDecl *decl = nullptr;
        const std::int64_t *data = nullptr;
        std::int64_t length = 0;
        Addr base = 0;
        Addr elemBytes = 0;
        trace::Record proto;
    };

    /** Affine part plus optional indirects_ entry (-1 when absent). */
    struct Value
    {
        Linear affine;
        std::int32_t indirect = -1;
    };

    /** One subscript with its dimension's extent and byte stride. */
    struct Dim
    {
        Value value;
        std::int64_t extent = 0;
        Addr byteStride = 0;
    };

    /** A lowered array reference over dims_[firstDim, +dimCount). */
    struct Ref
    {
        const ArrayDecl *decl = nullptr;
        Addr base = 0;
        std::uint32_t firstDim = 0;
        std::uint32_t dimCount = 0;
        /** Records one execution emits: 1 + its indirect loads. */
        std::uint32_t records = 1;
        trace::Record proto;
    };

    /** A statement; index selects loops_, refs_ or conds_ by kind. */
    struct Node
    {
        enum class Kind : std::uint8_t { Loop, Ref, Cond };
        Kind kind;
        std::uint32_t index;
    };

    /** Children of a loop, conditional or the program: nodes_[first, last). */
    struct Body
    {
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        /**
         * True when every child is a reference; the children are then
         * refs_[firstRef, + last - first), in order.
         */
        bool flat = true;
        std::uint32_t firstRef = 0;
        /** Records one pass emits when flat. */
        std::uint64_t flatRecords = 0;
    };

    struct LoopNode
    {
        VarId var = 0;
        Value lo;
        Value hi;
        std::int64_t step = 1;
        Body body;
    };

    struct CondNode
    {
        Linear expr;
        std::int64_t modulus = 1;
        std::int64_t threshold = 0;
        Body body;
    };

    /**
     * Number of records a run emits: walks loop bounds, indirect
     * bound data and conditionals only, drawing no issue delta.
     * Panics with the record-cap message once the count passes
     * @p max_records.
     */
    std::uint64_t recordCount(std::uint64_t max_records);

    Body lowerBody(const std::vector<Stmt> &stmts);
    Linear lowerLinear(const AffineExpr &e);
    Value lowerValue(const AffineExpr &affine,
                     const std::optional<IndirectPart> &indirect);
    trace::Record proto(RefId ref, trace::AccessType type) const;

    std::int64_t eval(const Linear &e) const;
    /** Add @p n to counted_, panicking past the record cap. */
    void count(std::uint64_t n);

    /**
     * The one tree walker. Out is the record consumer, or Counter for
     * the pre-pass, which only adds up records (whole flat loops at a
     * time) and draws no issue delta.
     */
    template <class Out> void execBody(const Body &b, Out &out);
    template <class Out> void execLoop(const LoopNode &l, Out &out);
    template <class Out> void execRefs(const Body &b, Out &out);
    template <class Out> void execRef(const Ref &r, Out &out);
    template <class Out> std::int64_t evalValue(const Value &v, Out &out);
    template <class Out>
    std::int64_t loadIndirect(std::int32_t which, Out &out);
    template <class Out>
    void emit(const trace::Record &proto, Addr addr, Out &out);

    const Program &program_;
    const TagVector &tags_;
    trace::TimingModel &timing_;
    std::vector<AffineExpr::Term> terms_;
    std::vector<Indirect> indirects_;
    std::vector<Dim> dims_;
    std::vector<Ref> refs_;
    std::vector<LoopNode> loops_;
    std::vector<CondNode> conds_;
    std::vector<Node> nodes_;
    Body top_;
    std::vector<std::int64_t> env_;
    std::uint64_t counted_ = 0;
    std::uint64_t maxRecords_ = defaultMaxRecords;
};

/**
 * Convenience: analyze-free generation with all tags cleared (a
 * "standard" trace with no software assistance).
 */
trace::Trace generateUntagged(const Program &program,
                              trace::TimingModel &timing);

} // namespace loopnest
} // namespace sac

#endif // SAC_LOOPNEST_GENERATOR_HH
