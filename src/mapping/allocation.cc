#include "mapping/allocation.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/logging.hh"

namespace srsim {

TaskAllocation::TaskAllocation(int numTasks, int numNodes)
    : nodes_(static_cast<std::size_t>(numTasks), kInvalidNode),
      numNodes_(numNodes)
{
    SRSIM_ASSERT(numTasks > 0 && numNodes > 0,
                 "allocation needs tasks and nodes");
}

void
TaskAllocation::assign(TaskId t, NodeId n)
{
    SRSIM_ASSERT(t >= 0 && t < numTasks(), "bad task id ", t);
    SRSIM_ASSERT(n >= 0 && n < numNodes_, "bad node id ", n);
    nodes_[static_cast<std::size_t>(t)] = n;
}

NodeId
TaskAllocation::nodeOf(TaskId t) const
{
    SRSIM_ASSERT(t >= 0 && t < numTasks(), "bad task id ", t);
    const NodeId n = nodes_[static_cast<std::size_t>(t)];
    if (n == kInvalidNode)
        fatal("task ", t, " has no node assigned");
    return n;
}

bool
TaskAllocation::complete() const
{
    return std::none_of(nodes_.begin(), nodes_.end(),
                        [](NodeId n) { return n == kInvalidNode; });
}

std::vector<TaskId>
TaskAllocation::tasksAt(NodeId n) const
{
    std::vector<TaskId> out;
    for (std::size_t t = 0; t < nodes_.size(); ++t)
        if (nodes_[t] == n)
            out.push_back(static_cast<TaskId>(t));
    return out;
}

bool
TaskAllocation::coLocated(const TaskFlowGraph &g, MessageId m) const
{
    const Message &msg = g.message(m);
    return nodeOf(msg.src) == nodeOf(msg.dst);
}

std::vector<MessageId>
TaskAllocation::networkMessages(const TaskFlowGraph &g) const
{
    std::vector<MessageId> out;
    for (const Message &m : g.messages())
        if (!coLocated(g, m.id))
            out.push_back(m.id);
    return out;
}

namespace alloc {

TaskAllocation
roundRobin(const TaskFlowGraph &g, const Topology &topo, int stride)
{
    SRSIM_ASSERT(stride >= 1, "stride must be positive");
    TaskAllocation a(g.numTasks(), topo.numNodes());
    const int n = topo.numNodes();
    for (TaskId t = 0; t < g.numTasks(); ++t)
        a.assign(t, static_cast<NodeId>(
                        static_cast<std::int64_t>(t) * stride % n));
    return a;
}

TaskAllocation
random(const TaskFlowGraph &g, const Topology &topo, Rng &rng)
{
    TaskAllocation a(g.numTasks(), topo.numNodes());
    std::vector<NodeId> pool(
        static_cast<std::size_t>(topo.numNodes()));
    std::iota(pool.begin(), pool.end(), 0);
    rng.shuffle(pool);
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        a.assign(t, pool[static_cast<std::size_t>(t) % pool.size()]);
    }
    return a;
}

TaskAllocation
greedy(const TaskFlowGraph &g, const Topology &topo)
{
    TaskAllocation a(g.numTasks(), topo.numNodes());
    std::vector<bool> used(static_cast<std::size_t>(topo.numNodes()),
                           false);
    const bool exclusive = g.numTasks() <= topo.numNodes();
    std::vector<NodeId> placed(static_cast<std::size_t>(g.numTasks()),
                               kInvalidNode);

    for (TaskId t : g.topologicalOrder()) {
        NodeId best = kInvalidNode;
        double best_cost = std::numeric_limits<double>::infinity();
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            if (exclusive && used[static_cast<std::size_t>(n)])
                continue;
            double cost = 0.0;
            for (MessageId m : g.incoming(t)) {
                const Message &msg = g.message(m);
                const NodeId s =
                    placed[static_cast<std::size_t>(msg.src)];
                if (s != kInvalidNode)
                    cost += msg.bytes * topo.distance(s, n);
            }
            // Deterministic tie-break on the lowest node id.
            if (cost < best_cost) {
                best_cost = cost;
                best = n;
            }
        }
        SRSIM_ASSERT(best != kInvalidNode, "no node available");
        a.assign(t, best);
        used[static_cast<std::size_t>(best)] = true;
        placed[static_cast<std::size_t>(t)] = best;
    }
    return a;
}

} // namespace alloc

} // namespace srsim
