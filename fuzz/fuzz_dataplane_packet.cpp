// Fuzz harness for the dataplane's untrusted-bytes path: arbitrary frames
// through PisaSwitch::process on the router, firewall and monitor
// programs (the first input byte picks the ingress port, the rest is the
// frame). Invariants:
//   * no exception escapes process() (parse errors and pipeline faults
//     are counted, never thrown);
//   * every packet is accounted for exactly once: packets_in equals
//     out + dropped + parse_errors + pipeline_faults;
//   * a forwarded packet whose actions write no field deparses
//     byte-identical to its input (none of these programs writes one);
//   * the output is never longer than the input.
//
// Built by -DPERA_FUZZ=ON: libFuzzer under clang, the standalone
// replay/mutation driver elsewhere. Seed corpus: tests/fixtures/fuzz
// (dp_*.bin are TCP, UDP and ARP frames behind a port byte).
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dataplane/builder.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace pera::dataplane;
  static const std::vector<std::shared_ptr<PisaSwitch>> switches = {
      std::make_shared<PisaSwitch>(make_router()),
      std::make_shared<PisaSwitch>(make_firewall()),
      std::make_shared<PisaSwitch>(make_monitor())};

  RawPacket raw;
  if (size > 0) {
    raw.port = data[0] % 8;
    raw.data.assign(data + 1, data + size);
  }
  for (const auto& sw : switches) {
    std::optional<RawPacket> out;
    try {
      out = sw->process(raw);
    } catch (...) {
      __builtin_trap();
    }
    const SwitchStats& st = sw->stats();
    if (st.packets_in != st.packets_out + st.packets_dropped +
                             st.parse_errors + st.pipeline_faults) {
      __builtin_trap();
    }
    if (!out.has_value()) continue;
    if (out->data.size() > raw.data.size() || out->data != raw.data) {
      __builtin_trap();
    }
  }
  return 0;
}
