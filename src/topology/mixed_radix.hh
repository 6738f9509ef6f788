/**
 * @file
 * Mixed-radix node addressing shared by GHC, torus, and mesh.
 *
 * Dimension 0 is the least-significant digit (the "LSD" of the
 * paper's LSD-to-MSD routing function).
 */

#ifndef SRSIM_TOPOLOGY_MIXED_RADIX_HH_
#define SRSIM_TOPOLOGY_MIXED_RADIX_HH_

#include <numeric>
#include <string>
#include <vector>

#include "topology/path.hh"
#include "util/logging.hh"

namespace srsim {

/** Converts between flat node ids and mixed-radix digit vectors. */
class MixedRadix
{
  public:
    /** Largest supported address count (node ids are ints). */
    static constexpr long kMaxSize = 1L << 24;

    /** @param radices radix per dimension, dimension 0 first */
    explicit MixedRadix(std::vector<int> radices)
        : radices_(std::move(radices))
    {
        SRSIM_ASSERT(!radices_.empty(), "need at least one dimension");
        for (int m : radices_)
            SRSIM_ASSERT(m >= 2, "radix must be >= 2, got ", m);
    }

    std::size_t dims() const { return radices_.size(); }
    int radix(std::size_t d) const { return radices_[d]; }
    const std::vector<int> &radices() const { return radices_; }

    /** Total number of addresses. */
    int
    size() const
    {
        long n = 1;
        for (int m : radices_)
            n *= m;
        SRSIM_ASSERT(n <= kMaxSize, "topology too large");
        return static_cast<int>(n);
    }

    /** Flat id -> digit vector. */
    std::vector<int>
    toDigits(NodeId id) const
    {
        SRSIM_ASSERT(id >= 0 && id < size(), "bad address ", id);
        std::vector<int> d(dims());
        for (std::size_t i = 0; i < dims(); ++i) {
            d[i] = id % radices_[i];
            id /= radices_[i];
        }
        return d;
    }

    /** Digit vector -> flat id. */
    NodeId
    toId(const std::vector<int> &digits) const
    {
        SRSIM_ASSERT(digits.size() == dims(), "bad digit count");
        NodeId id = 0;
        for (std::size_t i = dims(); i-- > 0;) {
            SRSIM_ASSERT(digits[i] >= 0 && digits[i] < radices_[i],
                         "digit ", digits[i], " out of radix ",
                         radices_[i]);
            id = id * radices_[i] + digits[i];
        }
        return id;
    }

    /** Render e.g. "(4,4,4)" with dimension 0 last (MSD first). */
    std::string
    radixString() const
    {
        std::string s = "(";
        for (std::size_t i = dims(); i-- > 0;) {
            s += std::to_string(radices_[i]);
            if (i != 0)
                s += ",";
        }
        return s + ")";
    }

  private:
    std::vector<int> radices_;
};

} // namespace srsim

#endif // SRSIM_TOPOLOGY_MIXED_RADIX_HH_
