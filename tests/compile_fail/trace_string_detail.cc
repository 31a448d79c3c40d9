// Must not compile: trace details are tokenized; raw text has no overload.
#include <string>

#include "sim/trace.h"

void Raw(fela::sim::TraceRecorder* trace) {
  trace->Record(0.0, 0, fela::sim::TraceKind::kConflict, std::string("raw"));
}
