#include "online/cache.hh"

#include <iomanip>
#include <sstream>

#include "metrics/metrics.hh"

namespace srsim {
namespace online {

std::string
canonicalWorkloadKey(const TaskFlowGraph &g, const Topology &topo,
                     const TaskAllocation &alloc,
                     const TimingModel &tm,
                     const SrCompilerConfig &cfg)
{
    std::ostringstream os;
    os << std::setprecision(17);

    // Fabric identity: name alone is not enough — two fabrics can
    // share a name yet wire their nodes differently, and routing
    // (hence the schedule) depends on the wiring. Fold in the node
    // and link counts plus a digest of the endpoint adjacency.
    os << "topo=" << topo.name() << ";";
    {
        std::uint64_t wire = 0xcbf29ce484222325ull;
        const auto mix = [&wire](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                wire ^= (v >> (8 * i)) & 0xffu;
                wire *= 0x100000001b3ull;
            }
        };
        for (LinkId l = 0; l < topo.numLinks(); ++l) {
            const Link &lk = topo.link(l);
            mix(static_cast<std::uint64_t>(lk.id));
            mix(static_cast<std::uint64_t>(lk.a));
            mix(static_cast<std::uint64_t>(lk.b));
        }
        os << "wire=" << topo.numNodes() << ":" << topo.numLinks()
           << ":" << std::hex << wire << std::dec << ";";
    }
    // Fault mask. Healthy resources are implicit so the common
    // (healthy) key stays short.
    for (LinkId l = 0; l < topo.numLinks(); ++l)
        if (topo.linkCapacity(l) < 1.0)
            os << "l" << l << "=" << topo.linkCapacity(l) << ";";
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        if (!topo.nodeUp(n))
            os << "n" << n << ";";

    // Timing model.
    os << "ap=" << tm.apSpeed << ";bw=" << tm.bandwidth
       << ";pkt=" << tm.packetBytes << ";";

    // Compiler knobs the schedule depends on.
    os << "period=" << cfg.inputPeriod
       << ";assign=" << (cfg.useAssignPaths ? 1 : 0)
       << ";seed=" << cfg.assign.seed
       << ";restarts=" << cfg.assign.maxRestarts
       << ";maxpaths=" << cfg.assign.maxPathsPerMessage
       << ";inner=" << cfg.assign.maxInnerIterations
       << ";alloc="
       << (cfg.allocMethod == AllocationMethod::Lp ? "lp"
                                                   : "greedy")
       << ";sched="
       << (cfg.scheduling.method == SchedulingMethod::LpFeasibleSets
               ? "lp"
               : "list")
       << ";sets=" << cfg.scheduling.maxFeasibleSets
       << ";ptime=" << cfg.scheduling.packetTime
       << ";mip=" << (cfg.scheduling.exactPacketMip ? 1 : 0)
       << ";guard=" << cfg.scheduling.guardTime
       << ";feedback=" << cfg.feedbackRounds << ";";

    // Tasks with placement, then messages in id order (segment row
    // i of the compiled schedule indexes the i-th network message
    // in this order, so order is part of the identity).
    for (const Task &t : g.tasks())
        os << "t:" << t.name << ":" << t.operations << ":"
           << alloc.nodeOf(t.id) << ";";
    for (const Message &m : g.messages())
        os << "m:" << m.name << ":" << g.task(m.src).name << ":"
           << g.task(m.dst).name << ":" << m.bytes << ";";
    return os.str();
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

ScheduleCache::ScheduleCache(std::size_t capacity,
                             metrics::Registry *registry)
    : capacity_(capacity == 0 ? 1 : capacity),
      registry_(registry)
{
}

std::uint64_t
ScheduleCache::entryBytes(const std::string &key, const Entry &entry)
{
    // Approximate resident size: the key string plus the schedule's
    // variable-length payload (path hops and segment windows). The
    // point is monotone accounting that eviction can subtract
    // exactly, not a malloc-accurate byte count.
    std::uint64_t n = key.size() + sizeof(Entry);
    for (const Path &p : entry.omega.paths.paths)
        n += p.nodes.size() * sizeof(NodeId) +
             p.links.size() * sizeof(LinkId);
    for (const auto &segs : entry.omega.segments)
        n += segs.size() * sizeof(TimeWindow);
    n += entry.omega.faultSpec.size();
    return n;
}

void
ScheduleCache::publishBytesGauge()
{
    if (SRSIM_METRICS_ENABLED() && registry_ != nullptr)
        registry_->gauge("cache.bytes")
            .set(static_cast<double>(bytes_.load()));
}

std::size_t
ScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

std::shared_ptr<const ScheduleCache::Entry>
ScheduleCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        misses_.fetch_add(1);
        return nullptr;
    }
    hits_.fetch_add(1);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
ScheduleCache::insert(const std::string &key, Entry entry)
{
    const std::uint64_t add = entryBytes(key, entry);
    auto node = std::make_shared<const Entry>(std::move(entry));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Replace in place: subtract the old payload's bytes so the
        // accounting stays exact across refreshes.
        bytes_.fetch_sub(entryBytes(key, *it->second->second));
        bytes_.fetch_add(add);
        it->second->second = std::move(node);
        lru_.splice(lru_.begin(), lru_, it->second);
        publishBytesGauge();
        return;
    }
    lru_.emplace_front(key, std::move(node));
    map_[key] = lru_.begin();
    bytes_.fetch_add(add);
    while (map_.size() > capacity_) {
        const Node &victim = lru_.back();
        bytes_.fetch_sub(entryBytes(victim.first, *victim.second));
        map_.erase(victim.first);
        lru_.pop_back();
        evictions_.fetch_add(1);
        if (SRSIM_METRICS_ENABLED() && registry_ != nullptr)
            registry_->counter("cache.evictions").add(1);
    }
    publishBytesGauge();
}

std::vector<ScheduleCache::DumpedEntry>
ScheduleCache::dumpForSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<DumpedEntry> out;
    out.reserve(lru_.size());
    for (const Node &node : lru_)
        out.push_back({node.first, *node.second});
    return out;
}

} // namespace online
} // namespace srsim
