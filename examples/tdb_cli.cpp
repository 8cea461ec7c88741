// tdb_cli: an interactive client for tdb_server.
//
// Reads commands from stdin and drives them over the wire protocol:
//
//   begin                 open a transaction (on the session's partition)
//   insert <text>         store a new BlobValue, prints its object id
//   get <id>              read an object (id as printed by insert)
//   put <id> <text>       replace an object
//   del <id>              delete an object
//   commit | abort        finish the transaction
//   partitions            list the server's partition directory
//   create <name>         create (and serve) a new partition
//   use <name>            switch the session to another partition
//   ping                  liveness round trip
//   quit
//
// Usage: tdb_cli [ip:port] [--partition name]   (default 127.0.0.1:7478)
//
// With --partition (or `use`), transactions are routed to that named
// partition — two tdb_cli sessions on two partitions of one server get
// fully isolated data and their commits still share group-commit flushes.
// `begin` and `put` are queued and reach the server with the next command
// that needs an answer (get, insert, del, commit, ...), so that command
// reports their errors. If the partition has been handed off to another
// server, whichever command reaches the server prints the kMoved redirect
// with the new address to dial.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "src/net/tcp.h"
#include "src/server/blob.h"
#include "src/server/client.h"

using namespace tdb;
using server::BlobValue;
using server::ObjectId;

namespace {

bool ParseId(const std::string& token, ObjectId* id) {
  char* end = nullptr;
  unsigned long long packed = std::strtoull(token.c_str(), &end, 0);
  if (end == token.c_str() || *end != '\0') {
    return false;
  }
  *id = ChunkId::Unpack(packed);
  return true;
}

void Report(const Status& status) {
  if (status.code() == StatusCode::kMoved) {
    std::printf("partition moved — reconnect to %s\n",
                status.message().c_str());
    return;
  }
  std::printf("%s\n", status.ok() ? "ok" : status.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const char* address = "127.0.0.1:7478";
  const char* partition_name = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--partition" && i + 1 < argc) {
      partition_name = argv[++i];
    } else {
      address = argv[i];
    }
  }

  TypeRegistry registry;
  if (!RegisterType<BlobValue>(registry).ok()) {
    return 1;
  }
  net::TcpTransport tcp;
  server::TdbClient client(&registry);
  Status connected = client.Connect(&tcp, address);
  if (!connected.ok()) {
    std::printf("connect %s: %s\n", address, connected.ToString().c_str());
    return 1;
  }

  // 0 routes to the server's sole partition; a name pins the session.
  PartitionId partition = 0;
  if (partition_name != nullptr) {
    auto entry = client.PartitionLookup(partition_name);
    if (!entry.ok()) {
      std::printf("partition '%s': %s\n", partition_name,
                  entry.status().ToString().c_str());
      return 1;
    }
    if (entry->moved) {
      std::printf("partition '%s' moved to %s — connect there\n",
                  partition_name, entry->moved_to.c_str());
      return 1;
    }
    partition = entry->id;
    std::printf("connected to %s, partition %u '%s'\n", address, partition,
                partition_name);
  } else {
    std::printf("connected to %s\n", address);
  }

  std::string line;
  while (std::printf("tdb> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      continue;
    }
    if (cmd == "quit" || cmd == "exit") {
      break;
    }
    if (cmd == "ping") {
      Report(client.Ping());
    } else if (cmd == "begin") {
      Report(client.Begin(partition));
    } else if (cmd == "partitions") {
      auto entries = client.PartitionList();
      if (!entries.ok()) {
        Report(entries.status());
        continue;
      }
      for (const auto& entry : *entries) {
        std::printf("  %u '%s'%s%s (epoch %llu)\n", entry.id,
                    entry.name.c_str(), entry.moved ? " moved to " : "",
                    entry.moved ? entry.moved_to.c_str() : "",
                    static_cast<unsigned long long>(entry.epoch));
      }
    } else if (cmd == "create") {
      std::string name;
      if (!(in >> name)) {
        std::printf("usage: create <name>\n");
        continue;
      }
      auto pid = client.PartitionCreate(name);
      if (pid.ok()) {
        std::printf("partition %u '%s'\n", *pid, name.c_str());
      } else {
        Report(pid.status());
      }
    } else if (cmd == "use") {
      std::string name;
      if (!(in >> name)) {
        std::printf("usage: use <name>\n");
        continue;
      }
      auto entry = client.PartitionLookup(name);
      if (!entry.ok()) {
        Report(entry.status());
      } else if (entry->moved) {
        std::printf("partition '%s' moved to %s\n", name.c_str(),
                    entry->moved_to.c_str());
      } else {
        partition = entry->id;
        std::printf("using partition %u '%s'\n", partition, name.c_str());
      }
    } else if (cmd == "commit") {
      Report(client.Commit());
    } else if (cmd == "abort") {
      Report(client.Abort());
    } else if (cmd == "insert") {
      std::string text;
      std::getline(in >> std::ws, text);
      auto id = client.Insert(BlobValue(text));
      if (id.ok()) {
        std::printf("id %#llx (%s)\n",
                    static_cast<unsigned long long>(id->Pack()),
                    id->ToString().c_str());
      } else {
        Report(id.status());
      }
    } else if (cmd == "get") {
      std::string token;
      ObjectId id;
      if (!(in >> token) || !ParseId(token, &id)) {
        std::printf("usage: get <id>\n");
        continue;
      }
      auto object = client.Get(id);
      if (object.ok()) {
        std::printf("\"%s\"\n",
                    dynamic_cast<const BlobValue&>(**object).value.c_str());
      } else {
        Report(object.status());
      }
    } else if (cmd == "put") {
      std::string token, text;
      ObjectId id;
      if (!(in >> token) || !ParseId(token, &id)) {
        std::printf("usage: put <id> <text>\n");
        continue;
      }
      std::getline(in >> std::ws, text);
      Report(client.Put(id, BlobValue(text)));
    } else if (cmd == "del") {
      std::string token;
      ObjectId id;
      if (!(in >> token) || !ParseId(token, &id)) {
        std::printf("usage: del <id>\n");
        continue;
      }
      Report(client.Delete(id));
    } else {
      std::printf(
          "commands: begin insert get put del commit abort partitions "
          "create use ping quit\n");
    }
  }
  client.Disconnect();
  return 0;
}
