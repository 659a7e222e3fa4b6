/**
 * @file
 * KVS workload generation (§5.6).
 *
 * "we generate two types of datasets similar to the ones used to
 * evaluate MICA: tiny (8B keys and 8B values) and small (16B keys and
 * 32B values). We populate both memcached and MICA KVS with 10M and
 * 200M unique key-value pairs respectively, and access them over the
 * Dagger fabric, following a Zipfian distribution with skewness of
 * 0.99. ... write-intense (set/get = 50%/50%) and read-intense
 * (set/get = 5%/95%)."
 *
 * Values are a deterministic function of the key so any GET hit can
 * be integrity-checked without keeping a shadow copy of the dataset.
 */

#ifndef DAGGER_APP_WORKLOAD_HH
#define DAGGER_APP_WORKLOAD_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dagger::app {

/** The two dataset shapes of §5.6. */
struct DatasetShape
{
    std::size_t keyLen;
    std::size_t valLen;
    const char *name;
};

constexpr DatasetShape kTiny{8, 8, "tiny"};
constexpr DatasetShape kSmall{16, 32, "small"};

/** One generated operation. */
struct KvOp
{
    bool isGet = true;
    std::uint64_t keyIndex = 0; ///< Zipf rank the key was drawn at
    std::string key;
    std::string value; ///< empty for GETs
};

/** Zipfian GET/SET stream over a fixed key space. */
class KvWorkload
{
  public:
    /**
     * @param num_keys  key-space size
     * @param theta     Zipf skew (0.99 / 0.9999 in the paper)
     * @param get_ratio fraction of GETs (0.95 read-intense, 0.50
     *                  write-intense)
     * @param shape     tiny or small
     */
    KvWorkload(std::uint64_t num_keys, double theta, double get_ratio,
               DatasetShape shape, std::uint64_t seed = 0x6b7673ull)
        : _shape(shape), _getRatio(get_ratio), _zipf(num_keys, theta, seed),
          _rng(seed ^ 0x9e3779b97f4a7c15ull), _valueBytes(shape.valLen * 256)
    {
        dagger_assert(shape.keyLen > 0 && shape.valLen > 0,
                      "KvWorkload needs non-empty keys and values, got ",
                      shape.keyLen, " B keys and ", shape.valLen,
                      " B values");
        // Row b holds the value bytes for key byte b at every position.
        // The key byte goes through char, as the formula reads it, so
        // bytes >= 128 and positions >= 128 keep the platform's char sign.
        for (unsigned b = 0; b < 256; ++b)
            for (std::size_t i = 0; i < shape.valLen; ++i)
                _valueBytes[b * shape.valLen + i] = static_cast<char>(
                    'A' + (static_cast<char>(b) * 31 +
                           static_cast<char>(i)) % 26);
    }

    /**
     * Deterministic fixed-width key for index @p i: its base-36 digits,
     * zero-padded to keyLen.  keyInto() writes the keyLen bytes to
     * @p out; keyFor() returns them as a string.
     */
    void
    keyInto(std::uint64_t i, char *out) const
    {
        std::fill_n(out, _shape.keyLen, '0');
        for (std::size_t pos = _shape.keyLen; pos-- > 0 && i > 0; i /= 36) {
            const auto digit = static_cast<char>(i % 36);
            out[pos] = digit < 10 ? static_cast<char>('0' + digit)
                                  : static_cast<char>('a' + digit - 10);
        }
    }

    std::string
    keyFor(std::uint64_t i) const
    {
        std::string key(_shape.keyLen, '0');
        keyInto(i, key.data());
        return key;
    }

    /**
     * Deterministic value for a key (integrity-checkable): byte i is
     * 'A' + (key[i % key.size()] * 31 + char(i)) % 26, in char
     * arithmetic.  The key must not be empty.  valueInto() writes the
     * valLen bytes to @p out; valueFor() returns them as a string.
     */
    void
    valueInto(std::string_view key, char *out) const
    {
        dagger_assert(!key.empty(), "KvWorkload: the value of an empty key");
        // One table load per byte, the key walked in whole blocks so
        // the loop does no division by the run-time key length.
        const auto *kb = reinterpret_cast<const unsigned char *>(key.data());
        const char *table = _valueBytes.data();
        const std::size_t len = _shape.valLen;
        for (std::size_t i = 0; i < len;) {
            const std::size_t n = std::min(len - i, key.size());
            for (std::size_t k = 0; k < n; ++k, ++i)
                out[i] = table[kb[k] * len + i];
        }
    }

    std::string
    valueFor(std::string_view key) const
    {
        std::string v(_shape.valLen, 'v');
        valueInto(key, v.data());
        return v;
    }

    /** Next operation in the stream. */
    KvOp
    next()
    {
        KvOp op;
        const std::uint64_t idx = _zipf.next();
        op.keyIndex = idx;
        op.key = keyFor(idx);
        op.isGet = _rng.uniform() < _getRatio;
        if (!op.isGet)
            op.value = valueFor(op.key);
        return op;
    }

    const DatasetShape &shape() const { return _shape; }
    std::uint64_t numKeys() const { return _zipf.n(); }

  private:
    DatasetShape _shape;
    double _getRatio;
    sim::ZipfianGenerator _zipf;
    sim::Rng _rng;
    std::vector<char> _valueBytes; ///< 256 rows (key byte) x valLen
};

} // namespace dagger::app

#endif // DAGGER_APP_WORKLOAD_HH
