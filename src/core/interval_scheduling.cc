#include "core/interval_scheduling.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "engine/context.hh"
#include "solver/lp.hh"
#include "solver/revised.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace srsim {

namespace {

/** Conflict test: do two messages share a link? */
bool
conflict(const PathAssignment &pa, std::size_t a, std::size_t b)
{
    const auto &la = pa.pathFor(a).links;
    const auto &lb = pa.pathFor(b).links;
    for (LinkId l : la)
        if (std::find(lb.begin(), lb.end(), l) != lb.end())
            return true;
    return false;
}

/**
 * Bron-Kerbosch with pivoting over the *complement* of the conflict
 * graph: maximal cliques there are maximal link-feasible sets.
 * Vertices are positions into `members`.
 */
class FeasibleSetEnumerator
{
  public:
    FeasibleSetEnumerator(const std::vector<std::size_t> &members,
                          const PathAssignment &pa,
                          std::size_t maxSets)
        : members_(members), maxSets_(maxSets)
    {
        const std::size_t n = members_.size();
        compat_.assign(n, std::vector<bool>(n, false));
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j)
                compat_[i][j] = compat_[j][i] =
                    !conflict(pa, members_[i], members_[j]);
    }

    std::vector<std::vector<std::size_t>>
    run()
    {
        std::vector<std::size_t> r, p(members_.size()), x;
        for (std::size_t i = 0; i < members_.size(); ++i)
            p[i] = i;
        expand(r, p, x);
        return std::move(out_);
    }

  private:
    void
    expand(std::vector<std::size_t> &r, std::vector<std::size_t> p,
           std::vector<std::size_t> x)
    {
        if (out_.size() >= maxSets_)
            return;
        if (p.empty() && x.empty()) {
            std::vector<std::size_t> set;
            set.reserve(r.size());
            for (std::size_t v : r)
                set.push_back(members_[v]);
            out_.push_back(std::move(set));
            return;
        }

        // Pivot: vertex of P u X with most neighbours in P.
        std::size_t pivot = SIZE_MAX;
        std::size_t best = 0;
        auto count_nbrs = [&](std::size_t u) {
            std::size_t c = 0;
            for (std::size_t v : p)
                if (compat_[u][v])
                    ++c;
            return c;
        };
        for (std::size_t u : p) {
            const std::size_t c = count_nbrs(u);
            if (pivot == SIZE_MAX || c > best) {
                pivot = u;
                best = c;
            }
        }
        for (std::size_t u : x) {
            const std::size_t c = count_nbrs(u);
            if (pivot == SIZE_MAX || c > best) {
                pivot = u;
                best = c;
            }
        }

        std::vector<std::size_t> cands;
        for (std::size_t v : p)
            if (pivot == SIZE_MAX || !compat_[pivot][v])
                cands.push_back(v);

        for (std::size_t v : cands) {
            std::vector<std::size_t> np, nx;
            for (std::size_t w : p)
                if (compat_[v][w])
                    np.push_back(w);
            for (std::size_t w : x)
                if (compat_[v][w])
                    nx.push_back(w);
            r.push_back(v);
            expand(r, std::move(np), std::move(nx));
            r.pop_back();
            p.erase(std::find(p.begin(), p.end(), v));
            x.push_back(v);
            if (out_.size() >= maxSets_)
                return;
        }
    }

    const std::vector<std::size_t> &members_;
    std::size_t maxSets_;
    std::vector<std::vector<bool>> compat_;
    std::vector<std::vector<std::size_t>> out_;
};

/** Per-interval work item: message indices and their demands. */
struct IntervalWork
{
    std::vector<std::size_t> members;
    std::vector<Time> demand;
};

/** Round t up to a whole number of packet times (0 = identity). */
Time
packetCeil(Time t, Time packet)
{
    if (packet <= 0.0 || timeLe(t, 0.0))
        return t;
    const double q = std::ceil((t - kTimeEps) / packet);
    return q * packet;
}

/** Outcome of one interval's schedule synthesis. */
struct SlotSchedule
{
    bool ok = false;
    /** Makespan consumed (meaningful when ok). */
    double used = 0.0;
    lp::Status status = lp::Status::Optimal;
    /** Offending message index (into bounds), or SIZE_MAX. */
    std::size_t messageIndex = SIZE_MAX;
    std::string error;
};

/** LP scheduling of one interval. Appends segments on success. */
SlotSchedule
scheduleLp(const IntervalWork &work, const PathAssignment &pa,
           const TimeWindow &iv, std::size_t maxSets, Time guard,
           Time packet, bool exact_mip, lp::BasisCache *basisCache,
           const std::string &cacheKey,
           const engine::EngineContext &ectx,
           std::vector<std::vector<TimeWindow>> &segments)
{
    SlotSchedule res;
    const auto sets =
        maximalLinkFeasibleSets(work.members, pa, maxSets);
    if (sets.empty()) {
        res.messageIndex = work.members.front();
        res.error = "feasible-set enumeration produced no sets "
                    "for a non-empty interval";
        return res;
    }

    // In exact-packet mode the decision variables are *packet
    // counts* per slot (the paper's integer program); otherwise
    // they are continuous slot durations.
    const bool mip = exact_mip && packet > 0.0;
    const double unit = mip ? packet : 1.0;

    lp::Problem prob;
    std::vector<std::size_t> y;
    y.reserve(sets.size());
    for (std::size_t j = 0; j < sets.size(); ++j) {
        y.push_back(prob.addVariable(1.0, "y" + std::to_string(j)));
        if (mip)
            prob.markInteger(y.back());
    }

    for (std::size_t i = 0; i < work.members.size(); ++i) {
        lp::Constraint c;
        for (std::size_t j = 0; j < sets.size(); ++j) {
            if (std::find(sets[j].begin(), sets[j].end(),
                          work.members[i]) != sets[j].end())
                c.terms.emplace_back(y[j], 1.0);
        }
        if (c.terms.empty()) {
            // Cap truncation can drop every set containing a
            // message; the covering LP would be vacuously wrong.
            std::ostringstream oss;
            oss << "message " << work.members[i]
                << " appears in no enumerated link-feasible set "
                   "(enumeration capped at "
                << maxSets << ")";
            res.messageIndex = work.members[i];
            res.error = oss.str();
            return res;
        }
        c.rel = lp::Relation::GreaterEq;
        c.rhs = work.demand[i] / unit;
        prob.addConstraint(std::move(c));
    }

    // Warm-start the continuous covering LP from this work item's
    // last optimal basis (keyed with the structure signature, so
    // each structural variant keeps its own entry).
    lp::SolveOptions sopts = ectx.solveOptions();
    lp::Basis warmBasis;
    std::string key;
    std::uint64_t sig = 0;
    if (!mip && basisCache != nullptr) {
        sig = lp::structureSignature(prob);
        key = cacheKey + "#" + std::to_string(sig);
        if (basisCache->lookup(key, sig, warmBasis))
            sopts.warmStart = &warmBasis;
    }

    lp::MipOptions mopts;
    mopts.lp = ectx.solveOptions();
    lp::Solution sol =
        mip ? lp::solveMip(prob, mopts) : lp::solve(prob, sopts);
    if (!mip && basisCache != nullptr && sol.feasible() &&
        !sol.basis.empty())
        basisCache->store(key, sig, sol.basis);
    if (mip && sol.status == lp::Status::IterationLimit &&
        !sol.values.empty()) {
        warn("exact packet scheduling hit the node cap; using the "
             "incumbent");
    } else if (mip && !sol.feasible()) {
        // Fall back to the rounded relaxation.
        lp::Problem relax = prob;
        sol = lp::solve(relax, ectx.solveOptions());
    }
    if (!sol.feasible() &&
        sol.status != lp::Status::IterationLimit) {
        res.status = sol.status;
        res.error = std::string("interval covering LP ") +
                    lp::statusName(sol.status);
        return res;
    }

    // Synthesize the timeline: slots in set order; a message
    // transmits in a slot only while it still has remaining demand.
    std::vector<Time> remaining(work.members.size());
    for (std::size_t i = 0; i < work.members.size(); ++i)
        remaining[i] = work.demand[i];
    auto member_pos = [&](std::size_t msg) {
        return static_cast<std::size_t>(
            std::find(work.members.begin(), work.members.end(),
                      msg) -
            work.members.begin());
    };

    Time cursor = iv.start;
    for (std::size_t j = 0; j < sets.size(); ++j) {
        const Time slot =
            packetCeil(sol.values[y[j]] * unit, packet);
        if (timeLe(slot, 0.0))
            continue;
        cursor += packetCeil(guard, packet); // crossbar setup
        for (std::size_t msg : sets[j]) {
            const std::size_t i = member_pos(msg);
            const Time use = std::min(slot, remaining[i]);
            if (timeLe(use, 0.0))
                continue;
            segments[msg].push_back(
                TimeWindow{cursor, cursor + use});
            remaining[i] -= use;
        }
        cursor += slot;
    }

    for (std::size_t i = 0; i < work.members.size(); ++i) {
        if (!timeLe(remaining[i], 0.0)) {
            // The LP claimed coverage but the synthesized timeline
            // fell short: a numerical artifact, not infeasibility.
            std::ostringstream oss;
            oss << "LP coverage left message " << work.members[i]
                << " short by " << remaining[i] << " us";
            res.status = lp::Status::NumericalFailure;
            res.messageIndex = work.members[i];
            res.error = oss.str();
            return res;
        }
    }
    res.ok = true;
    res.used = cursor - iv.start;
    return res;
}

/**
 * Greedy list scheduling of one interval (ablation baseline):
 * repeatedly pick a maximal conflict-free set by longest remaining
 * demand and run it to the next completion.
 * @return makespan used.
 */
double
scheduleGreedy(const IntervalWork &work, const PathAssignment &pa,
               const TimeWindow &iv, Time guard, Time packet,
               std::vector<std::vector<TimeWindow>> &segments)
{
    std::vector<Time> remaining = work.demand;
    Time cursor = iv.start;

    while (true) {
        // Pick messages by remaining demand, greedily compatible.
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < work.members.size(); ++i)
            if (timeGt(remaining[i], 0.0))
                order.push_back(i);
        if (order.empty())
            break;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return remaining[a] > remaining[b];
                  });
        std::vector<std::size_t> chosen;
        for (std::size_t i : order) {
            bool ok = true;
            for (std::size_t c : chosen)
                ok = ok && !conflict(pa, work.members[i],
                                     work.members[c]);
            if (ok)
                chosen.push_back(i);
        }
        Time slot = remaining[chosen.front()];
        for (std::size_t i : chosen)
            slot = std::min(slot, remaining[i]);
        slot = packetCeil(slot, packet);
        cursor += packetCeil(guard, packet); // crossbar setup
        for (std::size_t i : chosen) {
            segments[work.members[i]].push_back(
                TimeWindow{cursor, cursor + slot});
            remaining[i] -= slot;
        }
        cursor += slot;
    }
    return cursor - iv.start;
}

} // namespace

std::vector<std::vector<std::size_t>>
maximalLinkFeasibleSets(const std::vector<std::size_t> &members,
                        const PathAssignment &pa,
                        std::size_t maxSets)
{
    if (members.empty())
        return {};
    FeasibleSetEnumerator e(members, pa, maxSets);
    auto sets = e.run();
    if (sets.size() >= maxSets) {
        warn("feasible-set enumeration capped at ", maxSets,
             " sets; schedule may be conservative");
    }
    return sets;
}

IntervalScheduleResult
scheduleIntervals(const TimeBounds &bounds,
                  const IntervalSet &intervals,
                  const PathAssignment &pa,
                  const std::vector<MessageSubset> &subsets,
                  const IntervalAllocation &alloc,
                  const IntervalSchedulingOptions &opts)
{
    IntervalScheduleResult out;
    out.segments.assign(bounds.messages.size(), {});
    SRSIM_ASSERT(alloc.feasible,
                 "cannot schedule an infeasible allocation");

    // One work item per (subset, interval) with any allocated time.
    // After allocation the items are independent: intervals are
    // disjoint time windows and subsets share no link, so each item
    // schedules in isolation. Solve them concurrently into private
    // segment lists and merge in item order; the ordered merge stops
    // at the lowest failed item, reproducing the serial early-exit.
    struct Item
    {
        std::size_t s, k;
        IntervalWork work;
    };
    std::vector<Item> items;
    for (std::size_t s = 0; s < subsets.size(); ++s) {
        const MessageSubset &sub = subsets[s];
        for (std::size_t k : sub.intervals) {
            IntervalWork work;
            for (std::size_t h : sub.members) {
                const Time p = alloc.allocation.at(h, k);
                if (timeGt(p, 0.0)) {
                    work.members.push_back(h);
                    work.demand.push_back(p);
                }
            }
            if (!work.members.empty())
                items.push_back({s, k, std::move(work)});
        }
    }

    struct ItemResult
    {
        SlotSchedule slot;
        std::vector<std::vector<TimeWindow>> segments;
    };
    std::vector<ItemResult> results(items.size());
    const engine::EngineContext &ectx =
        engine::require(opts.ctx, "scheduleIntervals");
    ectx.pool().parallelFor(
        items.size(), [&](std::size_t i) {
            const Item &it = items[i];
            ItemResult &r = results[i];
            r.segments.assign(bounds.messages.size(), {});
            const TimeWindow &iv = intervals.interval(it.k);
            if (opts.method == SchedulingMethod::LpFeasibleSets) {
                std::string key;
                if (opts.basisCache != nullptr)
                    key = "s:" + std::to_string(it.s) + ":" +
                          std::to_string(it.k);
                r.slot = scheduleLp(it.work, pa, iv,
                                    opts.maxFeasibleSets,
                                    opts.guardTime, opts.packetTime,
                                    opts.exactPacketMip,
                                    opts.basisCache, key, ectx,
                                    r.segments);
            } else {
                r.slot.ok = true;
                r.slot.used = scheduleGreedy(it.work, pa, iv,
                                             opts.guardTime,
                                             opts.packetTime,
                                             r.segments);
            }
        });

    for (std::size_t i = 0; i < items.size(); ++i) {
        const Item &it = items[i];
        ItemResult &r = results[i];
        for (std::size_t h : it.work.members) {
            out.segments[h].insert(out.segments[h].end(),
                                   r.segments[h].begin(),
                                   r.segments[h].end());
        }
        if (!r.slot.ok) {
            out.feasible = false;
            out.failedSubset = static_cast<int>(it.s);
            out.failedInterval = static_cast<int>(it.k);
            out.solveStatus = r.slot.status;
            if (r.slot.messageIndex != SIZE_MAX)
                out.failedMessage =
                    bounds.messages[r.slot.messageIndex].msg;
            out.error = r.slot.error;
            return out;
        }
        const TimeWindow &iv = intervals.interval(it.k);
        if (timeGt(r.slot.used, iv.length())) {
            out.feasible = false;
            out.failedSubset = static_cast<int>(it.s);
            out.failedInterval = static_cast<int>(it.k);
            out.overrun = r.slot.used - iv.length();
            std::ostringstream oss;
            oss << "interval demand exceeds capacity by "
                << out.overrun << " us";
            out.error = oss.str();
            return out;
        }
    }

    for (auto &segs : out.segments) {
        std::sort(segs.begin(), segs.end(),
                  [](const TimeWindow &a, const TimeWindow &b) {
                      return a.start < b.start;
                  });
    }
    out.feasible = true;
    return out;
}

} // namespace srsim
