#include "overload/overload.h"

namespace ecc::overload {

namespace {

thread_local Deadline tls_deadline;  // inactive by default

}  // namespace

Deadline CurrentDeadline() { return tls_deadline; }

ScopedDeadline::ScopedDeadline(Deadline d) : prev_(tls_deadline) {
  tls_deadline = d;
}

ScopedDeadline::~ScopedDeadline() { tls_deadline = prev_; }

}  // namespace ecc::overload
