// A dead loopback endpoint for tests: a TCP port held bound but never
// listening. Linux refuses connects to it, and while the holder lives no
// other socket (in this process or another ctest -j process) can bind it —
// unlike "bind an ephemeral port and close it", which frees the port for
// anyone.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace wm::net {

class DeadPort {
 public:
  DeadPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~DeadPort() { release(); }

  DeadPort(const DeadPort&) = delete;
  DeadPort& operator=(const DeadPort&) = delete;

  int port() const { return port_; }

  /// Frees the port, e.g. just before a server binds it.
  void release() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace wm::net
