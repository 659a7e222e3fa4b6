#include "app/kvs_service.hh"

#include <cstring>

#include "sim/logging.hh"

namespace dagger::app {

namespace {

/** The GET request for @p key, shared by get() and getChecked(). */
KvGetRequest
getRequest(std::string_view key)
{
    dagger_assert(key.size() <= kKvMaxKey, "key too long");
    KvGetRequest req{};
    req.keyLen = static_cast<std::uint8_t>(key.size());
    std::memcpy(req.key, key.data(), key.size());
    return req;
}

/** The SET request for @p key, @p value; see getRequest(). */
KvSetRequest
setRequest(std::string_view key, std::string_view value)
{
    dagger_assert(key.size() <= kKvMaxKey, "key too long");
    dagger_assert(value.size() <= kKvMaxVal, "value too long");
    KvSetRequest req{};
    req.keyLen = static_cast<std::uint8_t>(key.size());
    req.valLen = static_cast<std::uint8_t>(value.size());
    std::memcpy(req.key, key.data(), key.size());
    std::memcpy(req.value, value.data(), value.size());
    return req;
}

} // namespace

KvsServer::KvsServer(rpc::RpcThreadedServer &server, KvBackend &backend)
    : _backend(backend)
{
    dagger_assert(server.size() > 0,
                  "add server threads before attaching KvsServer");
    for (std::size_t i = 0; i < server.size(); ++i)
        attachThread(server.serverThread(i), static_cast<unsigned>(i));
}

void
KvsServer::attachThread(rpc::RpcServerThread &thread, unsigned partition)
{
    thread.registerHandler(
        static_cast<proto::FnId>(KvsFn::Get),
        [this, partition](const proto::RpcMessage &m) {
            rpc::HandlerOutcome out;
            KvGetRequest req{};
            if (!m.payloadAs(req) || req.keyLen > kKvMaxKey) {
                out.respond = false;
                return out;
            }
            sim::Tick cost = 0;
            auto value = _backend.kvGet(
                partition, std::string_view(req.key, req.keyLen), cost);
            KvGetResponse resp{};
            if (value) {
                resp.hit = 1;
                resp.valLen = static_cast<std::uint8_t>(
                    std::min(value->size(), kKvMaxVal));
                std::memcpy(resp.value, value->data(), resp.valLen);
            }
            out.cost = cost;
            out.response = proto::PayloadBuf::ofPod(resp);
            return out;
        });

    thread.registerHandler(
        static_cast<proto::FnId>(KvsFn::Set),
        [this, partition](const proto::RpcMessage &m) {
            rpc::HandlerOutcome out;
            KvSetRequest req{};
            if (!m.payloadAs(req) || req.keyLen > kKvMaxKey ||
                req.valLen > kKvMaxVal) {
                out.respond = false;
                return out;
            }
            sim::Tick cost = 0;
            const bool stored = _backend.kvSet(
                partition, std::string_view(req.key, req.keyLen),
                std::string_view(req.value, req.valLen), cost);
            KvSetResponse resp{};
            resp.stored = stored ? 1 : 0;
            out.cost = cost;
            out.response = proto::PayloadBuf::ofPod(resp);
            return out;
        });
}

void
KvsClient::get(std::string_view key, GetCb cb)
{
    const KvGetRequest req = getRequest(key);
    rpc::RpcClient::ResponseCb raw;
    if (cb) {
        raw = [cb = std::move(cb)](const proto::RpcMessage &m) {
            KvGetResponse resp{};
            if (!m.payloadAs(resp))
                return;
            cb(resp.hit != 0, std::string_view(resp.value, resp.valLen));
        };
    }
    _client.callAsync(static_cast<proto::FnId>(KvsFn::Get), &req,
                      sizeof(req), std::move(raw));
}

void
KvsClient::set(std::string_view key, std::string_view value, SetCb cb)
{
    const KvSetRequest req = setRequest(key, value);
    rpc::RpcClient::ResponseCb raw;
    if (cb) {
        raw = [cb = std::move(cb)](const proto::RpcMessage &m) {
            KvSetResponse resp{};
            if (!m.payloadAs(resp))
                return;
            cb(resp.stored != 0);
        };
    }
    _client.callAsync(static_cast<proto::FnId>(KvsFn::Set), &req,
                      sizeof(req), std::move(raw));
}

void
KvsClient::getChecked(std::string_view key, GetStatusCb cb)
{
    const KvGetRequest req = getRequest(key);
    dagger_assert(cb, "getChecked needs a continuation");
    _client.callPodStatus(
        static_cast<proto::FnId>(KvsFn::Get), req,
        [cb = std::move(cb)](rpc::CallStatus st,
                             const proto::RpcMessage &m) {
            KvGetResponse resp{};
            if (st != rpc::CallStatus::Ok || !m.payloadAs(resp)) {
                cb(st, false, {});
                return;
            }
            cb(st, resp.hit != 0,
               std::string_view(resp.value, resp.valLen));
        });
}

} // namespace dagger::app
