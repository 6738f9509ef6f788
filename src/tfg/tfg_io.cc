#include "tfg/tfg_io.hh"

#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/parse.hh"

namespace srsim {

namespace {

constexpr const char *kMagic = "srsim-tfg v1";

/** The remaining whitespace-separated tokens of one line. */
std::vector<std::string>
restOf(std::istringstream &ls)
{
    std::vector<std::string> out;
    for (std::string tok; ls >> tok;)
        out.push_back(tok);
    return out;
}

} // namespace

void
writeTfg(std::ostream &os, const TaskFlowGraph &g)
{
    os << kMagic << "\n";
    os << std::setprecision(17);
    for (const Task &t : g.tasks())
        os << "task " << t.name << " " << t.operations << "\n";
    for (const Message &m : g.messages()) {
        os << "message " << m.name << " " << g.task(m.src).name
           << " " << g.task(m.dst).name << " " << m.bytes << "\n";
    }
    os << "end\n";
}

TaskFlowGraph
readTfg(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != kMagic)
        fatal("not an srsim-tfg v1 file");

    TaskFlowGraph g;
    std::map<std::string, TaskId> tasks;
    std::map<std::string, bool> message_names;
    bool ended = false;
    int lineno = 1;

    while (std::getline(is, line)) {
        ++lineno;
        std::istringstream ls(line);
        std::string kw;
        if (!(ls >> kw) || kw[0] == '#')
            continue;
        if (kw == "end") {
            ended = true;
            break;
        }
        const std::vector<std::string> args = restOf(ls);
        if (kw == "task") {
            double ops = 0.0;
            if (args.size() != 2 || !parseFinite(args[1], &ops))
                fatal("line ", lineno,
                      ": malformed task line (expected 'task <name> "
                      "<operations>')");
            const std::string &name = args[0];
            if (tasks.count(name))
                fatal("line ", lineno, ": duplicate task '", name,
                      "'");
            tasks[name] = g.addTask(name, ops);
        } else if (kw == "message") {
            double bytes = 0.0;
            if (args.size() != 4 || !parseFinite(args[3], &bytes))
                fatal("line ", lineno,
                      ": malformed message line (expected 'message "
                      "<name> <src> <dst> <bytes>')");
            const std::string &name = args[0];
            const std::string &src = args[1];
            const std::string &dst = args[2];
            if (message_names.count(name))
                fatal("line ", lineno, ": duplicate message '",
                      name, "'");
            auto si = tasks.find(src);
            auto di = tasks.find(dst);
            if (si == tasks.end())
                fatal("line ", lineno, ": unknown source task '",
                      src, "'");
            if (di == tasks.end())
                fatal("line ", lineno, ": unknown dest task '",
                      dst, "'");
            message_names[name] = true;
            g.addMessage(name, si->second, di->second, bytes);
        } else {
            fatal("line ", lineno, ": unknown keyword '", kw, "'");
        }
    }
    if (!ended)
        fatal("missing 'end' marker in TFG file");
    if (g.numTasks() == 0)
        fatal("TFG file declares no tasks");
    if (!g.isAcyclic())
        fatal("TFG file describes a cyclic graph");
    return g;
}

} // namespace srsim
