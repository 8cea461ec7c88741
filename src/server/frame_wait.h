// FrameWait: how either side of a wire hop waits for its next frame.
//
// A thread that parks in Connection::Recv pays a wake-up when the frame
// comes, and on a VM that is dear: on a 4-vCPU x86-64 VM a
// condition-variable ping-pong (two wake-ups) took 3.8-28 us per round trip
// with one pair of threads and 7-21 us with four, over five runs. So both
// sides of a hop poll Connection::Readable for up to 40 us before they
// park: the client for the answer to the frame it sent (TdbClient), and a
// session for its client's next frame (TdbServer). Whether a poll pays
// depends on the connection: a client in a closed loop sends its next
// frame within microseconds of an answer; an idle client, or one that
// thinks between transactions, does not. So each connection's wait keeps
// one rule, with constants:
//
//  * after kMissesToBackOff polls in a row that ran out the budget, it
//    parks at once and polls again only on every kBackOffPeriod-th wait;
//  * any poll that finds the frame brings polling back on every wait;
//  * a session never polls in a process that may run on one CPU, where its
//    poll holds the CPU its client needs to send the frame (under
//    `taskset -c 0`, sessions that polled nearly tripled ycsb-a-wire's
//    p50). The client keeps its poll there: the session it waits for
//    already has its frame, and the poll yields the CPU every 2 us.
//
// A wait that ends in the blocking Recv without finding a frame first is a
// park. The registry counts them per side: wire.client.parks and
// wire.session.parks.

#ifndef SRC_SERVER_FRAME_WAIT_H_
#define SRC_SERVER_FRAME_WAIT_H_

#include <chrono>
#include <cstddef>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/transport.h"

namespace tdb::server {

class FrameWait {
 public:
  static constexpr int kMissesToBackOff = 4;
  static constexpr int kBackOffPeriod = 8;

  // The client's wait for the answer to the frame it sent.
  static FrameWait ForClient();
  // A session's wait for its client's next frame, in a process that may
  // run on `cpus` CPUs (AffinityCpus() in src/common/thread_pool.h).
  static FrameWait ForSession(size_t cpus);

  // Receives the next frame on `conn` as Connection::Recv(timeout) does,
  // after a poll when the rule allows one.
  Result<Bytes> Next(net::Connection& conn, std::chrono::milliseconds timeout);

 private:
  FrameWait(bool polls, const char* parks_counter)
      : polls_(polls), parks_counter_(parks_counter) {}

  bool ShouldPoll();

  bool polls_;  // false: every wait parks at once
  const char* parks_counter_;
  int misses_ = 0;            // polls in a row that ran out the budget
  int waits_since_poll_ = 0;  // waits since the last poll, once backed off
};

}  // namespace tdb::server

#endif  // SRC_SERVER_FRAME_WAIT_H_
