/**
 * @file
 * KVS-over-Dagger service adapter (§5.6).
 *
 * This is the porting layer the paper describes: "we modify only ~50
 * LOC of the Memcached source code in order to integrate it with
 * Dagger" / "we simply implement a MICA server application which
 * integrates it with Dagger with ~200 LOC".  The wire messages follow
 * Listing 1's KVS service; the key sits at payload offset 0 so the
 * NIC's Object-Level load balancer can hash it in "hardware".
 */

#ifndef DAGGER_APP_KVS_SERVICE_HH
#define DAGGER_APP_KVS_SERVICE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "rpc/client.hh"
#include "rpc/server.hh"
#include "sim/time.hh"

namespace dagger::app {

/** Maximum key bytes carried on the wire. */
constexpr std::size_t kKvMaxKey = 16;
/** Maximum value bytes carried on the wire. */
constexpr std::size_t kKvMaxVal = 32;

/** Function ids of the KVS service (get=1, set=2, as Listing 1). */
enum class KvsFn : proto::FnId {
    Get = 1,
    Set = 2,
};

#pragma pack(push, 1)
/** GET request: fits one cache-line frame. */
struct KvGetRequest
{
    char key[kKvMaxKey]{}; ///< offset 0: hashed by the NIC LB
    std::uint8_t keyLen = 0;
    std::uint8_t pad[3]{};
};
static_assert(sizeof(KvGetRequest) == 20);

/** GET response. */
struct KvGetResponse
{
    std::uint8_t hit = 0;
    std::uint8_t valLen = 0;
    char value[kKvMaxVal]{};
};
static_assert(sizeof(KvGetResponse) == 34);

/** SET request: two frames for max-size values. */
struct KvSetRequest
{
    char key[kKvMaxKey]{}; ///< offset 0: hashed by the NIC LB
    std::uint8_t keyLen = 0;
    std::uint8_t valLen = 0;
    std::uint8_t pad[2]{};
    char value[kKvMaxVal]{};
};
static_assert(sizeof(KvSetRequest) == 52);

/** SET response. */
struct KvSetResponse
{
    std::uint8_t stored = 0;
};
static_assert(sizeof(KvSetResponse) == 1);
#pragma pack(pop)

/**
 * Backend interface the adapter serves from — the "~50-200 LOC"
 * integration surface for a third-party store.
 */
class KvBackend
{
  public:
    virtual ~KvBackend() = default;

    /**
     * @param partition index of the serving thread (EREW stores use
     *                  it to select their partition)
     * @param cost out: simulated CPU cost of the operation
     */
    virtual std::optional<std::string> kvGet(unsigned partition,
                                             std::string_view key,
                                             sim::Tick &cost) = 0;
    virtual bool kvSet(unsigned partition, std::string_view key,
                       std::string_view value, sim::Tick &cost) = 0;
};

/**
 * Server-side adapter: registers get/set handlers on every thread of
 * an RpcThreadedServer, binding each thread to its flow index as the
 * backend partition.
 */
class KvsServer
{
  public:
    KvsServer(rpc::RpcThreadedServer &server, KvBackend &backend);

  private:
    void attachThread(rpc::RpcServerThread &thread, unsigned partition);

    KvBackend &_backend;
};

/** Client-side typed stub. */
class KvsClient
{
  public:
    using GetCb = std::function<void(bool hit, std::string_view value)>;
    using SetCb = std::function<void(bool stored)>;
    /** Status-aware continuation: fires exactly once per call, even
     *  when the underlying RetryPolicy exhausts its budget. */
    using GetStatusCb = std::function<void(rpc::CallStatus, bool hit,
                                           std::string_view value)>;

    explicit KvsClient(rpc::RpcClient &client) : _client(client) {}

    /** Non-blocking GET. */
    void get(std::string_view key, GetCb cb = {});

    /** Non-blocking SET. */
    void set(std::string_view key, std::string_view value, SetCb cb = {});

    /** GET whose continuation also reports the call outcome (for
     *  degraded-mode callers under a timeout budget). */
    void getChecked(std::string_view key, GetStatusCb cb);

    rpc::RpcClient &raw() { return _client; }

  private:
    rpc::RpcClient &_client;
};

} // namespace dagger::app

#endif // DAGGER_APP_KVS_SERVICE_HH
