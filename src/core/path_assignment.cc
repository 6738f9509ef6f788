#include "core/path_assignment.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "engine/context.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace srsim {

UtilizationAnalyzer::UtilizationAnalyzer(const TimeBounds &bounds,
                                         const IntervalSet &intervals,
                                         const Topology &topo)
    : bounds_(bounds), intervals_(intervals), topo_(topo)
{
    const std::size_t nmsg = bounds_.messages.size();
    durations_.resize(nmsg);
    noSlack_.resize(nmsg);
    activeIv_.resize(nmsg);
    for (std::size_t i = 0; i < nmsg; ++i) {
        durations_[i] = bounds_.messages[i].duration;
        noSlack_[i] = bounds_.messages[i].noSlack();
        activeIv_[i] = intervals_.activeIntervals(i);
    }
    ivLength_.resize(intervals_.size());
    for (std::size_t k = 0; k < intervals_.size(); ++k)
        ivLength_[k] = intervals_.interval(k).length();
}

double
UtilizationAnalyzer::linkUtilization(const PathAssignment &pa,
                                     LinkId j) const
{
    return LinkLoadState(*this, pa).linkUtilization(j);
}

double
UtilizationAnalyzer::spotUtilization(const PathAssignment &pa,
                                     LinkId j, std::size_t k) const
{
    return LinkLoadState(*this, pa).spotCount(j, k);
}

UtilizationReport
UtilizationAnalyzer::analyze(const PathAssignment &pa) const
{
    return LinkLoadState(*this, pa).report();
}

namespace {

std::vector<const Path *>
routesOf(const PathAssignment &pa)
{
    std::vector<const Path *> routes;
    routes.reserve(pa.paths.size());
    for (const Path &p : pa.paths)
        routes.push_back(&p);
    return routes;
}

bool
crosses(const Path &p, LinkId l)
{
    return std::find(p.links.begin(), p.links.end(), l) !=
           p.links.end();
}

} // namespace

LinkLoadState::LinkLoadState(const UtilizationAnalyzer &ua,
                             const PathAssignment &pa)
    : LinkLoadState(ua, routesOf(pa))
{}

LinkLoadState::LinkLoadState(const UtilizationAnalyzer &ua,
                             std::vector<const Path *> routes)
    : ua_(ua), kk_(ua.intervals_.size()), route_(std::move(routes))
{
    const std::size_t nl =
        static_cast<std::size_t>(ua_.topo_.numLinks());
    capacity_.resize(nl);
    for (std::size_t l = 0; l < nl; ++l)
        capacity_[l] = ua_.topo_.linkCapacity(static_cast<LinkId>(l));
    onLink_.resize(nl);
    used_.assign(nl * kk_, 0);
    spot_.assign(nl * kk_, 0);

    // Message-index order, so every list comes out sorted.
    for (std::size_t i = 0; i < route_.size(); ++i) {
        const bool ns = ua_.noSlack_[i];
        for (LinkId lid : route_[i]->links) {
            const std::size_t l = static_cast<std::size_t>(lid);
            onLink_[l].push_back(i);
            for (std::size_t k : ua_.activeIv_[i]) {
                ++used_[l * kk_ + k];
                if (ns)
                    ++spot_[l * kk_ + k];
            }
        }
    }

    // Leaf nl is an idle sentinel that pads the tree and never wins.
    link_.resize(nl + 1);
    link_[nl].peak = -1.0;
    while (leaves_ < nl)
        leaves_ *= 2;
    tree_.assign(2 * leaves_, nl);
    for (std::size_t l = 0; l < nl; ++l) {
        tree_[leaves_ + l] = l;
        refresh(l, true, true);
        rekey(l);
    }
    // One bottom-up pass: every node is the winner of its children.
    for (std::size_t n = leaves_ - 1; n >= 1; --n)
        tree_[n] = winner(n);
}

void
LinkLoadState::move(std::size_t i, const Path &p)
{
    const Path &old = *route_[i];
    route_[i] = &p;
    for (LinkId l : old.links)
        if (!crosses(p, l))
            leave(i, static_cast<std::size_t>(l));
    for (LinkId lid : p.links) {
        const std::size_t l = static_cast<std::size_t>(lid);
        if (!crosses(old, lid))
            join(i, l);
        else if (onLink_[l].front() == i)
            settle(l); // same link, new position in i's route
    }
}

void
LinkLoadState::leave(std::size_t i, std::size_t l)
{
    std::vector<std::size_t> &msgs = onLink_[l];
    msgs.erase(std::lower_bound(msgs.begin(), msgs.end(), i));
    const bool ns = ua_.noSlack_[i];
    const std::size_t bestIv = link_[l].bestSpotIv;
    bool flipped = false, lost = false;
    for (std::size_t k : ua_.activeIv_[i]) {
        if (--used_[l * kk_ + k] == 0)
            flipped = true;
        if (ns) {
            --spot_[l * kk_ + k];
            lost = lost || k == bestIv;
        }
    }
    refresh(l, flipped, lost);
    settle(l);
}

void
LinkLoadState::join(std::size_t i, std::size_t l)
{
    std::vector<std::size_t> &msgs = onLink_[l];
    msgs.insert(std::upper_bound(msgs.begin(), msgs.end(), i), i);
    const bool ns = ua_.noSlack_[i];
    LinkCache &c = link_[l];
    bool flipped = false;
    for (std::size_t k : ua_.activeIv_[i]) {
        if (used_[l * kk_ + k]++ == 0)
            flipped = true;
        if (ns) {
            const int s = ++spot_[l * kk_ + k];
            if (s > c.bestSpot || (s == c.bestSpot && k < c.bestSpotIv)) {
                c.bestSpot = s;
                c.bestSpotIv = k;
            }
        }
    }
    refresh(l, flipped, false);
    settle(l);
}

void
LinkLoadState::refresh(std::size_t l, bool usedFlipped, bool spotLost)
{
    LinkCache &c = link_[l];
    // Rule 1: a fresh sum in message-index order.
    Time demand = 0.0;
    for (std::size_t i : onLink_[l])
        demand += ua_.durations_[i];
    // Rule 2: interval order; a derated link only offers its
    // duty-cycle fraction of the active time, a failed link none.
    if (usedFlipped) {
        Time avail = 0.0;
        for (std::size_t k = 0; k < kk_; ++k)
            if (used_[l * kk_ + k])
                avail += ua_.ivLength_[k];
        c.avail = avail * capacity_[l];
    }
    c.u = c.avail > 0.0
              ? demand / c.avail
              : (demand > 0.0 ? std::numeric_limits<double>::infinity()
                              : 0.0);
    if (spotLost) {
        c.bestSpot = 0;
        c.bestSpotIv = 0;
        for (std::size_t k = 0; k < kk_; ++k) {
            if (spot_[l * kk_ + k] > c.bestSpot) {
                c.bestSpot = spot_[l * kk_ + k];
                c.bestSpotIv = k;
            }
        }
    }
    // Rule 3: link-U first, then the first highest hot-spot. A spot
    // contributes only when it is a *hot-spot*: two or more no-slack
    // messages pinned to one link in one interval (Def. 5.2's
    // condition U^s_jk <= 1 violated). A single no-slack message is
    // not contention, and counting it would pin the reported peak at
    // 1.0 whenever tau_m == tau_c.
    c.peak = c.u > 0.0 ? c.u : 0.0;
    c.peakIsSpot = false;
    const double s = static_cast<double>(c.bestSpot);
    if (s > 1.0 && s > c.peak) {
        c.peak = s;
        c.peakIsSpot = true;
    }
}

void
LinkLoadState::rekey(std::size_t l)
{
    // Rule 4: the from-scratch scan visits links in the order of
    // their first message, then of their position in its route.
    LinkCache &c = link_[l];
    const std::vector<std::size_t> &msgs = onLink_[l];
    c.firstMsg = msgs.empty() ? SIZE_MAX : msgs.front();
    c.firstPos = SIZE_MAX;
    if (!msgs.empty()) {
        const auto &links = route_[c.firstMsg]->links;
        c.firstPos = static_cast<std::size_t>(
            std::find(links.begin(), links.end(),
                      static_cast<LinkId>(l)) -
            links.begin());
    }
}

void
LinkLoadState::settle(std::size_t l)
{
    rekey(l);
    // Only l's key changed, so a node whose winner stays the same
    // link other than l hands its parent unchanged inputs: every
    // ancestor already holds its winner.
    for (std::size_t n = (leaves_ + l) / 2; n >= 1; n /= 2) {
        const std::size_t w = winner(n);
        if (w == tree_[n] && w != l)
            return;
        tree_[n] = w;
    }
}

std::size_t
LinkLoadState::winner(std::size_t n) const
{
    const std::size_t a = tree_[2 * n], b = tree_[2 * n + 1];
    return outranks(b, a) ? b : a;
}

std::size_t
LinkLoadState::staleNode() const
{
    for (std::size_t n = 1; n < leaves_; ++n)
        if (tree_[n] != winner(n))
            return n;
    return 0;
}

bool
LinkLoadState::outranks(std::size_t a, std::size_t b) const
{
    const LinkCache &x = link_[a], &y = link_[b];
    if (x.peak != y.peak)
        return x.peak > y.peak;
    if (x.firstMsg != y.firstMsg)
        return x.firstMsg < y.firstMsg;
    return x.firstPos < y.firstPos;
}

UtilizationReport
LinkLoadState::report() const
{
    UtilizationReport rep;
    const std::size_t w = tree_[1];
    const LinkCache &c = link_[w];
    // Rule 5: an idle fabric has no peak position.
    if (c.peak > 0.0) {
        rep.peak = c.peak;
        rep.position = PeakPosition{c.peakIsSpot, static_cast<LinkId>(w),
                                    c.peakIsSpot ? c.bestSpotIv : 0};
    }
    return rep;
}

namespace {

/**
 * Candidate minimal paths for every network message. A message with
 * no path at all (disconnected fabric) gets an empty candidate list;
 * the caller turns that into a structured failure.
 */
std::vector<std::vector<Path>>
candidatePaths(const TaskFlowGraph &g, const Topology &topo,
               const TaskAllocation &alloc, const TimeBounds &bounds,
               std::size_t maxPaths)
{
    std::vector<std::vector<Path>> out;
    out.reserve(bounds.messages.size());
    for (const MessageBounds &b : bounds.messages) {
        const Message &m = g.message(b.msg);
        const NodeId s = alloc.nodeOf(m.src);
        const NodeId d = alloc.nodeOf(m.dst);
        out.push_back(topo.minimalPaths(s, d, maxPaths));
    }
    return out;
}

/** Outcome of one improvement walk (one restart). */
struct WalkResult
{
    /** Candidate index per message. */
    std::vector<std::size_t> choice;
    UtilizationReport report;
    int reroutes = 0;
};

/**
 * One iterative-improvement walk of Fig. 4's inner loop: start from
 * a random assignment drawn from `seed`'s own RNG stream and reroute
 * peak-crossing messages until no move reduces (or usefully
 * repositions) the peak. Each candidate move is scored by applying
 * it to the walk's own LinkLoadState. Deterministic given
 * (candidates, seed).
 */
WalkResult
improveWalk(const std::vector<std::vector<Path>> &candidates,
            const UtilizationAnalyzer &ua,
            const AssignPathsOptions &opts, std::uint64_t seed)
{
    Rng rng(seed);
    WalkResult w;
    w.choice.reserve(candidates.size());
    std::vector<const Path *> start;
    start.reserve(candidates.size());
    for (const auto &cands : candidates) {
        w.choice.push_back(rng.index(cands.size()));
        start.push_back(&cands[w.choice.back()]);
    }
    LinkLoadState load(ua, std::move(start));
    UtilizationReport cur_rep = load.report();

    // Iterative improvement: a sweep reroutes at most one message;
    // repositioning moves (same peak value, different link/spot) are
    // allowed a bounded number of times so the walk can escape
    // plateaus without oscillating forever.
    int inner = 0;
    int repositions = 0;
    const int repositionBudget =
        2 * static_cast<int>(candidates.size()) + 4;
    std::vector<std::size_t> reroutable;
    bool iflag = true;
    while (iflag && inner < opts.maxInnerIterations &&
           cur_rep.position.link != kInvalidLink) {
        iflag = false;
        ++inner;

        // Reroutable = multi-hop messages crossing the peak link
        // (restricted to the peak interval for spots).
        reroutable.clear();
        for (std::size_t i : load.messagesOn(cur_rep.position.link)) {
            if (candidates[i][w.choice[i]].hops() < 2)
                continue;
            if (cur_rep.position.isSpot &&
                !ua.intervals().active(i, cur_rep.position.interval))
                continue;
            if (candidates[i].size() < 2)
                continue;
            reroutable.push_back(i);
        }

        double best_new_peak = cur_rep.peak;
        std::size_t red_msg = SIZE_MAX, red_path = 0;
        std::size_t repos_msg = SIZE_MAX, repos_path = 0;

        for (std::size_t i : reroutable) {
            for (std::size_t c = 0; c < candidates[i].size(); ++c) {
                if (c == w.choice[i])
                    continue;
                load.move(i, candidates[i][c]);
                const UtilizationReport rep = load.report();
                if (rep.peak < best_new_peak - 1e-12) {
                    best_new_peak = rep.peak;
                    red_msg = i;
                    red_path = c;
                } else if (repos_msg == SIZE_MAX &&
                           rep.peak <= cur_rep.peak + 1e-12 &&
                           !(rep.position == cur_rep.position)) {
                    repos_msg = i;
                    repos_path = c;
                }
            }
            load.move(i, candidates[i][w.choice[i]]);
        }

        if (red_msg == SIZE_MAX &&
            (repos_msg == SIZE_MAX || repositions >= repositionBudget))
            continue;
        if (red_msg == SIZE_MAX) {
            red_msg = repos_msg;
            red_path = repos_path;
            ++repositions;
        }
        w.choice[red_msg] = red_path;
        load.move(red_msg, candidates[red_msg][red_path]);
        cur_rep = load.report();
        ++w.reroutes;
        iflag = true;
    }

    w.report = cur_rep;
    return w;
}

} // namespace

PathAssignment
lsdToMsdAssignment(const TaskFlowGraph &g, const Topology &topo,
                   const TaskAllocation &alloc,
                   const TimeBounds &bounds)
{
    PathAssignment pa;
    pa.paths.reserve(bounds.messages.size());
    for (const MessageBounds &b : bounds.messages) {
        const Message &m = g.message(b.msg);
        pa.paths.push_back(topo.routeLsdToMsd(alloc.nodeOf(m.src),
                                              alloc.nodeOf(m.dst)));
    }
    return pa;
}

AssignPathsResult
assignPaths(const TaskFlowGraph &g, const Topology &topo,
            const TaskAllocation &alloc, const TimeBounds &bounds,
            const IntervalSet &intervals,
            const AssignPathsOptions &opts)
{
    const auto candidates = candidatePaths(g, topo, alloc, bounds,
                                           opts.maxPathsPerMessage);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].empty()) {
            const Message &m = g.message(bounds.messages[i].msg);
            AssignPathsResult bad;
            bad.ok = false;
            bad.failedMessage = m.id;
            bad.error = "no path between node " +
                        std::to_string(alloc.nodeOf(m.src)) +
                        " and node " +
                        std::to_string(alloc.nodeOf(m.dst)) +
                        " for message '" + m.name + "'";
            return bad;
        }
    }

    // Outer loop of Fig. 4, restructured for parallelism: restart
    // walks are *independent* (walk r draws its random start from
    // the RNG stream deriveSeed(opts.seed, r)), so they run
    // concurrently on the context's pool and the result is
    // bit-identical to the serial order for every thread count. The
    // reduction is a fixed-order scan: lowest peak U wins, ties go
    // to the lowest restart index.
    const std::size_t walks =
        static_cast<std::size_t>(opts.maxRestarts) + 1;
    const UtilizationAnalyzer ua(bounds, intervals, topo);
    std::vector<WalkResult> results(walks);
    engine::require(opts.ctx, "assignPaths").pool().parallelFor(
        walks, [&](std::size_t r) {
            results[r] = improveWalk(candidates, ua, opts,
                                     deriveSeed(opts.seed, r));
        });

    AssignPathsResult result;
    std::size_t best = 0;
    for (std::size_t r = 0; r < walks; ++r) {
        result.reroutes += results[r].reroutes;
        if (results[r].report.peak <
            results[best].report.peak - 1e-12)
            best = r;
    }
    result.restarts = static_cast<int>(walks) - 1;
    result.assignment.paths.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        result.assignment.paths.push_back(
            candidates[i][results[best].choice[i]]);
    result.report = results[best].report;
    return result;
}

GreedyRouteResult
greedyRouteMessages(const TaskFlowGraph &g, const Topology &topo,
                    const TaskAllocation &alloc,
                    const TimeBounds &bounds,
                    const IntervalSet &intervals,
                    const std::vector<std::size_t> &indices,
                    std::size_t maxPathsPerMessage,
                    PathAssignment &pa)
{
    GreedyRouteResult out;
    UtilizationAnalyzer ua(bounds, intervals, topo);

    // Phase 1: every listed message takes its first surviving
    // minimal path, so phase 2 scores candidates against a complete
    // assignment.
    std::vector<std::vector<Path>> cands(indices.size());
    for (std::size_t j = 0; j < indices.size(); ++j) {
        const std::size_t i = indices[j];
        const Message &m = g.message(bounds.messages[i].msg);
        cands[j] = topo.minimalPaths(alloc.nodeOf(m.src),
                                     alloc.nodeOf(m.dst),
                                     maxPathsPerMessage);
        if (cands[j].empty()) {
            out.failedMessage = m.id;
            out.error = "no surviving minimal path between node " +
                        std::to_string(alloc.nodeOf(m.src)) +
                        " and node " +
                        std::to_string(alloc.nodeOf(m.dst)) +
                        " for message '" + m.name + "'";
            return out;
        }
        pa.paths[i] = cands[j].front();
    }

    // Phase 2: in list order, keep the candidate minimizing the
    // peak utilization with all other routes fixed.
    LinkLoadState load(ua, pa);
    for (std::size_t j = 0; j < indices.size(); ++j) {
        const std::size_t i = indices[j];
        std::size_t best = 0;
        double best_peak = 0.0;
        for (std::size_t c = 0; c < cands[j].size(); ++c) {
            load.move(i, cands[j][c]);
            const double peak = load.report().peak;
            if (c == 0 || peak < best_peak - 1e-12) {
                best = c;
                best_peak = peak;
            }
        }
        load.move(i, cands[j][best]);
        pa.paths[i] = cands[j][best];
    }

    out.ok = true;
    out.report = load.report();
    return out;
}

} // namespace srsim
