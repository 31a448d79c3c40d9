// Must not compile with the simulation libraries' -Wfloat-equal.
bool SameTime(double a, double b) { return a == b; }
