// ipc_server: a message-pair RPC service in the Mach style (paper sec. 3).
//
// "Most kernel operations are invoked by sending messages to the kernel
// ... Results from most kernel operations are returned to the sender in a
// second message; this pair of messages constitutes a remote procedure
// call." This example builds exactly that: a kernel_server thread owning a
// service port whose translation is a counter object, and a set of client
// threads doing request/reply over ports — each with its own reply port,
// each message carrying the reply-port reference.
//
// It then shuts the object down mid-stream and shows the clients observing
// clean KERN_TERMINATED replies while nothing leaks.
#include <atomic>
#include <cstdio>
#include <vector>

#include "harness/trace_session.h"
#include "ipc/stubs.h"
#include "sched/kthread.h"
#include "trace/kspan.h"

using namespace mach;
using namespace std::chrono_literals;

int main() {
  // Env-driven observability: MACHLOCK_TRACE=<path> exports the run,
  // MACHLOCK_SPANS=1 threads every request across client → server → reply
  // (this example is the CI smoke for kspan's cross-thread flow events).
  trace_session session;
  std::printf("machlock ipc_server example\n===========================\n\n");
  const std::uint64_t live_before = kobject::live_objects();
  {
    // The service: a counter object represented by a port.
    auto counter = make_object<counter_object>();
    auto service = make_object<port>("counter-service");
    service->set_translation(counter);
    kernel_server server(service, standard_router(), "counter-server");

    // Clients: each sends OP_COUNTER_ADD requests and awaits replies on
    // its private reply port.
    constexpr int num_clients = 4;
    constexpr int requests_per_client = 500;
    std::atomic<int> ok_replies{0};
    std::atomic<int> terminated_replies{0};
    std::vector<std::unique_ptr<kthread>> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.push_back(kthread::spawn("client" + std::to_string(c), [&, c] {
        auto reply_port = make_object<port>("client-reply");
        for (int i = 0; i < requests_per_client; ++i) {
          // One request span per message pair (inert without MACHLOCK_SPANS).
          kspan::request span("client-rpc");
          message req(OP_COUNTER_ADD, {1});
          req.reply_to = reply_port;  // the carried port right
          if (service->send(std::move(req)) != KERN_SUCCESS) break;
          auto reply = reply_port->receive(5s);
          if (!reply.has_value()) break;
          if (reply->ret == KERN_SUCCESS) {
            ok_replies.fetch_add(1);
          } else if (reply->ret == KERN_TERMINATED) {
            terminated_replies.fetch_add(1);
          }
          if (c == 0 && i == requests_per_client / 2) {
            // Halfway through, client 0 shuts the object down (sec. 10).
            shutdown_protocol(*service, {});
            std::printf("client0: issued shutdown after %d requests\n", i + 1);
          }
        }
      }));
    }
    for (auto& c : clients) c->join();
    server.stop();

    std::printf("\nresults:\n");
    std::printf("  successful replies:      %d\n", ok_replies.load());
    std::printf("  clean TERMINATED replies: %d\n", terminated_replies.load());
    std::printf("  server served:           %llu messages\n",
                static_cast<unsigned long long>(server.served()));
    counter->lock();
    std::printf("  object deactivated:      %s\n", counter->active() ? "no (?)" : "yes");
    counter->unlock();
  }
  std::printf("  leaked kernel objects:   %llu (expected 0)\n",
              static_cast<unsigned long long>(kobject::live_objects() - live_before));
  return 0;
}
