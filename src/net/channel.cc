#include "net/channel.h"

namespace ecc::net {

void Channel::Wait(Duration d) {
  VirtualClock* c = clock();
  if (c != nullptr) c->Advance(d);
}

}  // namespace ecc::net
