// Must not compile: a dropped Status is an error ([[nodiscard]], -Werror).
#include "common/status.h"

fela::common::Status DoWork();

void Caller() { DoWork(); }
