#include "obs/obs.h"

namespace pera::obs {

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

void count(std::string_view name, std::uint64_t delta) {
  if (enabled()) metrics().counter(name).add(delta);
}

void gauge_set(std::string_view name, std::int64_t value) {
  if (enabled()) metrics().gauge(name).set(value);
}

void observe(std::string_view histogram, std::int64_t value) {
  if (enabled()) metrics().histogram(histogram).observe(value);
}

std::string dump_json() {
  return "{\"metrics\":" + metrics().to_json() + ",\"trace\":" + trace_json() +
         "}";
}

}  // namespace pera::obs
