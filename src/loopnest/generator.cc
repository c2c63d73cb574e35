#include "src/loopnest/generator.hh"

#include <type_traits>

#include "src/util/logging.hh"

namespace sac {
namespace loopnest {

namespace {

/** The pre-pass consumer: counts records, emits and samples nothing. */
struct Counter
{
};

template <class Out>
constexpr bool counting = std::is_same_v<Out, Counter>;

// Failure reports, kept out of line so the hot walker stays small.

[[noreturn, gnu::cold, gnu::noinline]] void
subscriptOutOfBounds(const ArrayDecl &a, std::uint32_t d, std::int64_t idx)
{
    util::panic("subscript out of bounds in ", a.name, " dim ", d, ": ",
                idx, " not in [0, ", a.dims[d], ")");
}

[[noreturn, gnu::cold, gnu::noinline]] void
indexOutOfBounds(const ArrayDecl &a, std::int64_t i)
{
    util::panic("index-array subscript out of bounds in ", a.name, ": ", i);
}

[[noreturn, gnu::cold, gnu::noinline]] void
recordCapExceeded()
{
    util::panic("trace exceeds the record cap; runaway loop nest?");
}

/** True unless 0 <= i < n (n > 0), in one unsigned comparison. */
inline bool
outside(std::int64_t i, std::int64_t n)
{
    return static_cast<std::uint64_t>(i) >= static_cast<std::uint64_t>(n);
}

} // namespace

TraceGenerator::TraceGenerator(const Program &program,
                               const TagVector &tags,
                               trace::TimingModel &timing)
    : program_(program), tags_(tags), timing_(timing)
{
    SAC_ASSERT(program_.finalized(),
               "the program must be finalized before execution");
    SAC_ASSERT(tags_.size() == program_.refCount(),
               "tag vector size must equal the static reference count");
    env_.assign(program_.varCount(), 0);
    top_ = lowerBody(program_.statements());
}

TraceGenerator::Body
TraceGenerator::lowerBody(const std::vector<Stmt> &stmts)
{
    // A body's children are contiguous in nodes_; reserve their slots
    // before lowering them, since lowering appends nested bodies.
    Body b;
    b.first = static_cast<std::uint32_t>(nodes_.size());
    b.firstRef = static_cast<std::uint32_t>(refs_.size());
    for (const auto &s : stmts) {
        // CALL markers only affect analysis; nothing to execute.
        if (!s.isCall())
            nodes_.push_back({Node::Kind::Ref, 0});
    }
    b.last = static_cast<std::uint32_t>(nodes_.size());
    std::uint32_t slot = b.first;
    for (const auto &s : stmts) {
        if (s.isLoop()) {
            const Loop &l = s.loop();
            SAC_ASSERT(l.step != 0, "loop step must be non-zero");
            SAC_ASSERT(l.var < env_.size(), "unknown loop variable");
            LoopNode n;
            n.var = l.var;
            n.lo = lowerValue(l.lo.affine, l.lo.indirect);
            n.hi = lowerValue(l.hi.affine, l.hi.indirect);
            n.step = l.step;
            n.body = lowerBody(l.body);
            nodes_[slot++] = {Node::Kind::Loop,
                              static_cast<std::uint32_t>(loops_.size())};
            loops_.push_back(n);
            b.flat = false;
        } else if (s.isRef()) {
            const ArrayRef &r = s.ref();
            const ArrayDecl &decl = program_.array(r.array);
            SAC_ASSERT(r.subs.size() == decl.dims.size(),
                       "subscript count does not match array rank of ",
                       decl.name);
            Ref n;
            n.decl = &decl;
            n.base = *decl.base;
            n.firstDim = static_cast<std::uint32_t>(dims_.size());
            n.dimCount = static_cast<std::uint32_t>(r.subs.size());
            n.proto = proto(r.ref, r.type);
            Addr stride = decl.elemBytes;
            for (std::size_t d = 0; d < r.subs.size(); ++d) {
                Dim dim;
                dim.value = lowerValue(r.subs[d].affine, r.subs[d].indirect);
                dim.extent = decl.dims[d];
                dim.byteStride = stride;
                stride *= static_cast<Addr>(decl.dims[d]);
                n.records += dim.value.indirect >= 0 ? 1 : 0;
                dims_.push_back(dim);
            }
            nodes_[slot++] = {Node::Kind::Ref,
                              static_cast<std::uint32_t>(refs_.size())};
            refs_.push_back(n);
            b.flatRecords += n.records;
        } else if (s.isConditional()) {
            const Conditional &c = s.conditional();
            SAC_ASSERT(c.modulus > 0, "conditional modulus must be > 0");
            CondNode n;
            n.expr = lowerLinear(c.expr);
            n.modulus = c.modulus;
            n.threshold = c.threshold;
            n.body = lowerBody(c.body);
            nodes_[slot++] = {Node::Kind::Cond,
                              static_cast<std::uint32_t>(conds_.size())};
            conds_.push_back(n);
            b.flat = false;
        }
    }
    return b;
}

TraceGenerator::Linear
TraceGenerator::lowerLinear(const AffineExpr &e)
{
    Linear l;
    l.constant = e.constant();
    l.first = static_cast<std::uint32_t>(terms_.size());
    l.count = static_cast<std::uint32_t>(e.terms().size());
    for (const auto &t : e.terms()) {
        SAC_ASSERT(t.var < env_.size(),
                   "loop variable without a value in an expression");
        terms_.push_back(t);
    }
    return l;
}

TraceGenerator::Value
TraceGenerator::lowerValue(const AffineExpr &affine,
                           const std::optional<IndirectPart> &indirect)
{
    Value v;
    v.affine = lowerLinear(affine);
    if (indirect) {
        const ArrayDecl &decl = program_.array(indirect->array);
        SAC_ASSERT(decl.dims.size() == 1,
                   "indirect index arrays must be one-dimensional: ",
                   decl.name);
        SAC_ASSERT(!decl.data.empty(),
                   "index array has no contents: ", decl.name);
        Indirect p;
        p.index = lowerLinear(indirect->index);
        p.decl = &decl;
        p.data = decl.data.data();
        p.length = static_cast<std::int64_t>(decl.data.size());
        p.base = *decl.base;
        p.elemBytes = decl.elemBytes;
        p.proto = proto(indirect->ref, trace::AccessType::Read);
        v.indirect = static_cast<std::int32_t>(indirects_.size());
        indirects_.push_back(p);
    }
    return v;
}

trace::Record
TraceGenerator::proto(RefId ref, trace::AccessType type) const
{
    SAC_ASSERT(ref != invalidRefId,
               "executing a reference with no id; was finalize() run?");
    trace::Record rec;
    rec.ref = ref;
    rec.size = elementBytes;
    rec.type = type;
    rec.temporal = tags_[ref].temporal;
    rec.spatial = tags_[ref].spatial;
    rec.spatialLevel = tags_[ref].spatialLevel;
    return rec;
}

std::uint64_t
TraceGenerator::recordCount(std::uint64_t max_records)
{
    counted_ = 0;
    maxRecords_ = max_records;
    Counter counter;
    execBody(top_, counter);
    return counted_;
}

void
TraceGenerator::run(trace::Trace &out, std::uint64_t max_records)
{
    out.setName(program_.name());
    const std::size_t before = out.size();
    out.reserve(before + recordCount(max_records));
    const auto push = [&out](const trace::Record &r) { out.push(r); };
    execBody(top_, push);
    SAC_ASSERT(out.size() - before == counted_,
               "the record pre-pass miscounted ", program_.name());
}

void
TraceGenerator::run(const trace::RecordSink &sink,
                    std::uint64_t max_records)
{
    recordCount(max_records);
    execBody(top_, sink);
}

void
TraceGenerator::count(std::uint64_t n)
{
    if (n > maxRecords_ - counted_)
        recordCapExceeded();
    counted_ += n;
}

std::int64_t
TraceGenerator::eval(const Linear &e) const
{
    std::int64_t v = e.constant;
    const AffineExpr::Term *t = terms_.data() + e.first;
    for (std::uint32_t i = 0; i < e.count; ++i)
        v += t[i].coeff * env_[t[i].var];
    return v;
}

template <class Out>
void
TraceGenerator::execBody(const Body &b, Out &out)
{
    if (b.flat) {
        if constexpr (counting<Out>)
            count(b.flatRecords);
        else
            execRefs(b, out);
        return;
    }
    for (std::uint32_t i = b.first; i < b.last; ++i) {
        const Node n = nodes_[i];
        switch (n.kind) {
          case Node::Kind::Loop:
            execLoop(loops_[n.index], out);
            break;
          case Node::Kind::Ref:
            if constexpr (counting<Out>)
                count(refs_[n.index].records);
            else
                execRef(refs_[n.index], out);
            break;
          case Node::Kind::Cond: {
            const CondNode &c = conds_[n.index];
            const std::int64_t value = eval(c.expr);
            const std::int64_t residue =
                ((value % c.modulus) + c.modulus) % c.modulus;
            if (residue < c.threshold)
                execBody(c.body, out);
            break;
          }
        }
    }
}

template <class Out>
void
TraceGenerator::execLoop(const LoopNode &l, Out &out)
{
    const std::int64_t lo = evalValue(l.lo, out);
    const std::int64_t hi = evalValue(l.hi, out);
    if constexpr (counting<Out>) {
        if (l.body.flat) {
            // Trip count without iterating; the differences are
            // taken unsigned so extreme bounds cannot overflow.
            std::uint64_t trips = 0;
            if (l.step > 0 && lo <= hi) {
                trips = (static_cast<std::uint64_t>(hi) -
                         static_cast<std::uint64_t>(lo)) /
                            static_cast<std::uint64_t>(l.step) +
                        1;
            } else if (l.step < 0 && lo >= hi) {
                trips = (static_cast<std::uint64_t>(lo) -
                         static_cast<std::uint64_t>(hi)) /
                            (0 - static_cast<std::uint64_t>(l.step)) +
                        1;
            }
            const std::uint64_t per = l.body.flatRecords;
            if (per > 0) {
                if (trips > (maxRecords_ - counted_) / per)
                    recordCapExceeded();
                counted_ += trips * per;
            }
            return;
        }
    }
    std::int64_t &var = env_[l.var];
    const std::int64_t saved = var;
    const auto iterate = [&](const auto &body) {
        if (l.step > 0) {
            for (std::int64_t i = lo; i <= hi; i += l.step) {
                var = i;
                body();
            }
        } else {
            for (std::int64_t i = lo; i >= hi; i += l.step) {
                var = i;
                body();
            }
        }
    };
    if constexpr (!counting<Out>) {
        if (l.body.flat) {
            // The innermost loops: a straight run of references.
            iterate([&] { execRefs(l.body, out); });
            var = saved;
            return;
        }
    }
    iterate([&] { execBody(l.body, out); });
    var = saved;
}

template <class Out>
void
TraceGenerator::execRefs(const Body &b, Out &out)
{
    const Ref *r = refs_.data() + b.firstRef;
    for (const Ref *end = r + (b.last - b.first); r != end; ++r)
        execRef(*r, out);
}

template <class Out>
void
TraceGenerator::execRef(const Ref &r, Out &out)
{
    Addr addr = r.base;
    const Dim *dims = dims_.data() + r.firstDim;
    for (std::uint32_t d = 0; d < r.dimCount; ++d) {
        std::int64_t idx = eval(dims[d].value.affine);
        if (dims[d].value.indirect >= 0) [[unlikely]]
            idx += loadIndirect(dims[d].value.indirect, out);
        if (outside(idx, dims[d].extent)) [[unlikely]]
            subscriptOutOfBounds(*r.decl, d, idx);
        addr += static_cast<Addr>(idx) * dims[d].byteStride;
    }
    emit(r.proto, addr, out);
}

template <class Out>
std::int64_t
TraceGenerator::evalValue(const Value &v, Out &out)
{
    std::int64_t value = eval(v.affine);
    if (v.indirect >= 0)
        value += loadIndirect(v.indirect, out);
    return value;
}

template <class Out>
std::int64_t
TraceGenerator::loadIndirect(std::int32_t which, Out &out)
{
    const Indirect &p = indirects_[static_cast<std::size_t>(which)];
    const std::int64_t i = eval(p.index);
    if (outside(i, p.length)) [[unlikely]]
        indexOutOfBounds(*p.decl, i);
    emit(p.proto, p.base + static_cast<Addr>(i) * p.elemBytes, out);
    return p.data[i];
}

template <class Out>
void
TraceGenerator::emit(const trace::Record &proto, Addr addr, Out &out)
{
    if constexpr (counting<Out>) {
        count(1);
    } else {
        trace::Record rec = proto;
        rec.addr = addr;
        rec.delta = timing_.sampleDelta();
        out(rec);
    }
}

trace::Trace
generateUntagged(const Program &program, trace::TimingModel &timing)
{
    TagVector tags(program.refCount());
    TraceGenerator gen(program, tags, timing);
    trace::Trace t(program.name());
    gen.run(t);
    return t;
}

} // namespace loopnest
} // namespace sac
