#include "common.hh"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace srbench {

namespace {

double
cpuClockMs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

} // namespace

double
threadCpuMs()
{
    return cpuClockMs(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuMs()
{
    return cpuClockMs(CLOCK_PROCESS_CPUTIME_ID);
}

bool
parseArgs(int argc, char **argv, Args &args, std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--flip-expected-verdict") {
            args.flipExpectedVerdict = true;
            continue;
        }
        if (i + 1 >= argc) {
            *err = "missing value after " + a;
            return false;
        }
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                args.workload = v;
            else if (a == "--seed")
                args.seed = std::stoull(v);
            else if (a == "--seconds")
                args.seconds = std::stod(v);
            else if (a == "--trace")
                args.trace = std::stoi(v) != 0;
            else if (a == "--golden-dir")
                args.goldenDir = v;
            else if (a == "--state-dir")
                args.stateDir = v;
            else if (a == "--git-sha")
                args.gitSha = v;
            else {
                *err = "unknown argument " + a;
                return false;
            }
        } catch (const std::exception &) {
            *err = "bad value '" + v + "' for " + a;
            return false;
        }
    }
    if (args.workload.empty() || args.goldenDir.empty() ||
        args.stateDir.empty()) {
        *err = "--workload, --golden-dir and --state-dir are required";
        return false;
    }
    if (!(args.seconds > 0.0) || args.seconds > 600.0) {
        *err = "--seconds must be in (0, 600]";
        return false;
    }
    return true;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

/** Name of a statfs(2) filesystem magic number. */
std::string
fsName(long magic)
{
    switch (static_cast<unsigned long>(magic) & 0xffffffffUL) {
      case 0xEF53: return "ext4";
      case 0x01021994: return "tmpfs";
      case 0x794c7630: return "overlayfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x6969: return "nfs";
      case 0x2FC12FC1: return "zfs";
      case 0x65735546: return "fuse";
      case 0x6a656a63: return "virtiofs";
      case 0x01021997: return "9p";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "magic-0x%lx",
                  static_cast<unsigned long>(magic));
    return buf;
}

/** Filesystem of `path`, or of its nearest existing ancestor. */
std::string
filesystemOf(std::filesystem::path path)
{
    std::error_code ec;
    path = std::filesystem::absolute(path, ec);
    while (!path.empty() && !std::filesystem::exists(path, ec))
        path = path.parent_path();
    struct statfs sf{};
    if (path.empty() || statfs(path.c_str(), &sf) != 0)
        return "unknown";
    return fsName(static_cast<long>(sf.f_type));
}

} // namespace

void
writeHostMetadata(srsim::JsonWriter &w, const Args &args)
{
    utsname u{};
    uname(&u);
    w.kv("nproc", static_cast<std::int64_t>(
                      sysconf(_SC_NPROCESSORS_ONLN)));
    w.kv("hardware_concurrency",
         static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    w.kv("kernel", std::string(u.sysname) + " " + u.release);
    w.kv("machine", std::string(u.machine));
    w.kv("compiler", std::string(SRBENCH_COMPILER));
    w.kv("compiler_version", std::string(__VERSION__));
    w.kv("build_type", std::string(SRBENCH_BUILD_TYPE));
    w.kv("git_sha", args.gitSha);
    w.kv("state_dir_fs", filesystemOf(args.stateDir));
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    *out = os.str();
    return true;
}

void
writeSummary(srsim::JsonWriter &w, const std::string &key,
             const std::vector<double> &v)
{
    w.key(key).beginObject();
    w.kv("n", static_cast<std::uint64_t>(v.size()));
    w.kv("mean", mean(v));
    w.kv("p50", percentile(v, 50.0));
    w.kv("p90", percentile(v, 90.0));
    w.kv("p99", percentile(v, 99.0));
    w.kv("min", v.empty() ? 0.0 : *std::min_element(v.begin(), v.end()));
    w.kv("max", v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()));
    w.endObject();
}

void
writeSetup(srsim::JsonWriter &w, const SetupTimes &setups)
{
    w.kv("setup_cpu_s", setups.medianS());
    for (const auto &[key, samples] :
         {std::pair{"setup_cpu_samples_s", &setups.cpuS},
          std::pair{"setup_wall_samples_s", &setups.wallS}}) {
        w.key(key).beginArray();
        for (const double s : *samples)
            w.value(s);
        w.endArray();
    }
}

} // namespace srbench
