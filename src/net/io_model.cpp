#include "net/io_model.hpp"

namespace waves::net {

IoModel default_io_model() {
#ifdef __linux__
  return IoModel::kEpoll;
#else
  return IoModel::kPoll;
#endif
}

const char* io_model_name(IoModel m) {
  return m == IoModel::kEpoll ? "epoll" : "poll";
}

}  // namespace waves::net
