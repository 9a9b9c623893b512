// Fuzzes the kTrace payload decoder, obs::IngestWireSnapshot
// (src/obs/trace.h). The proc coordinator runs it on bytes a worker
// process sent, so a corrupt or hostile snapshot must be rejected (false)
// or merged — never crash, over-read, or size an allocation from an
// unchecked length. Every accepted span must carry a process ordinal (the
// decoder stamps ordinal-less spans with the sender's), and the merged
// timeline must export, as `dseq_cli --trace-out` exports it. The span
// sink is cleared after each input so memory stays bounded across runs.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/obs/trace.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  constexpr int kSender = 3;
  std::string_view payload(reinterpret_cast<const char*>(data), size);
  if (dseq::obs::IngestWireSnapshot(payload, kSender)) {
    for (const dseq::obs::TraceEvent& ev : dseq::obs::SnapshotTrace()) {
      if (ev.process_ordinal < 0) __builtin_trap();
    }
    if (dseq::obs::ChromeTraceJson().empty()) __builtin_trap();
  }
  dseq::obs::ResetTraceForTest();
  return 0;
}
