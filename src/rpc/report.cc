#include "rpc/report.hh"

#include <sstream>

namespace dagger::rpc {

std::string
reportSystemJson(DaggerSystem &sys)
{
    std::ostringstream os;
    os << "{\n\"time_us\": "
       << sim::jsonNumber(sim::ticksToUs(sys.eq().now()))
       << ",\n\"metrics\": " << sys.metrics().renderJson() << "}\n";
    return os.str();
}

} // namespace dagger::rpc
