#include "nic/load_balancer.hh"

#include "nic/config.hh"

namespace dagger::nic {

const char *
lbSchemeName(LbScheme scheme)
{
    switch (scheme) {
      case LbScheme::RoundRobin:
        return "round-robin";
      case LbScheme::Static:
        return "static";
      case LbScheme::ObjectLevel:
        return "object-level";
    }
    return "?";
}

std::uint64_t
objectKeyHash(const std::uint8_t *data, std::size_t len)
{
    std::uint64_t h = detail::kFnvBasis;
    for (std::size_t i = 0; i < len; ++i)
        h = detail::fnvStep(h, data[i]);
    return h;
}

} // namespace dagger::nic
