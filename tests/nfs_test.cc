// Tests for PA-NFS (§6.1): protocol ops, transactions and chunking, freeze
// as a record type, version branching under close-to-open consistency,
// orphaned-transaction recovery after client crash, and the cross-machine
// ancestry chain of Figure 1.

#include <gtest/gtest.h>

#include "src/core/libpass.h"
#include "src/lasagna/recovery.h"
#include "src/nfs/client.h"
#include "src/nfs/server.h"
#include "src/workloads/machine.h"
#include "src/workloads/workloads.h"

namespace pass::nfs {
namespace {

using workloads::Machine;
using workloads::MachineOptions;

class NfsTest : public ::testing::Test {
 protected:
  NfsTest()
      : server_machine_(ServerOptions()),
        client_machine_(ClientOptions(&server_machine_.env())),
        network_(&server_machine_.env().clock()),
        server_(&server_machine_.env(), server_machine_.volume(), "nfs1"),
        client_fs_(&server_machine_.env(), &network_, &server_) {
    EXPECT_TRUE(client_machine_.kernel().Mount("/mnt/nfs", &client_fs_).ok());
    client_machine_.pass()->AttachVolume(&client_fs_);
  }

  static MachineOptions ServerOptions() {
    MachineOptions options;
    options.with_pass = true;
    options.shard = 1;
    return options;
  }
  MachineOptions ClientOptions(sim::Env* env) {
    MachineOptions options;
    options.with_pass = true;
    options.shard = 2;
    options.shared_env = env;
    return options;
  }

  Machine server_machine_;
  Machine client_machine_;
  sim::Network network_;
  NfsServer server_;
  NfsClientFs client_fs_;
};

TEST_F(NfsTest, RemoteFileRoundTrip) {
  os::Pid pid = client_machine_.Spawn("client");
  ASSERT_TRUE(client_machine_.kernel()
                  .WriteFile(pid, "/mnt/nfs/hello.txt", "over the wire")
                  .ok());
  auto data = client_machine_.kernel().ReadFile(pid, "/mnt/nfs/hello.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "over the wire");
  // The bytes live on the server's lower fs.
  EXPECT_EQ(*server_machine_.basefs().ReadFileRaw("/hello.txt"),
            "over the wire");
  EXPECT_GT(network_.stats().round_trips, 2u);
}

TEST_F(NfsTest, RemoteNamespaceOps) {
  os::Pid pid = client_machine_.Spawn("client");
  ASSERT_TRUE(client_machine_.kernel().Mkdir(pid, "/mnt/nfs/dir").ok());
  ASSERT_TRUE(
      client_machine_.kernel().WriteFile(pid, "/mnt/nfs/dir/a", "1").ok());
  auto entries = client_machine_.kernel().Readdir(pid, "/mnt/nfs/dir");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  ASSERT_TRUE(
      client_machine_.kernel()
          .Rename(pid, "/mnt/nfs/dir/a", "/mnt/nfs/dir/b")
          .ok());
  EXPECT_TRUE(server_machine_.basefs().ExistsRaw("/dir/b"));
  ASSERT_TRUE(client_machine_.kernel().Unlink(pid, "/mnt/nfs/dir/b").ok());
  EXPECT_FALSE(server_machine_.basefs().ExistsRaw("/dir/b"));
}

TEST_F(NfsTest, ProvenanceReachesServerDatabase) {
  os::Pid pid = client_machine_.Spawn("analyzer-client");
  ASSERT_TRUE(client_machine_.kernel()
                  .WriteFile(pid, "/mnt/nfs/out.dat", "result")
                  .ok());
  ASSERT_TRUE(server_machine_.waldo()->Drain().ok());

  // The server's database knows the file and its ancestry back to the
  // client process object.
  auto pnodes = server_machine_.db()->PnodesByName("/mnt/nfs/out.dat");
  ASSERT_EQ(pnodes.size(), 1u);
  bool has_proc_ancestor = false;
  for (core::Version v : server_machine_.db()->VersionsOf(pnodes[0])) {
    for (const core::ObjectRef& input :
         server_machine_.db()->Inputs({pnodes[0], v})) {
      for (const core::Record& record :
           server_machine_.db()->RecordsOfAllVersions(input.pnode)) {
        if (record.attr == core::Attr::kType &&
            std::get<std::string>(record.value) == "PROC") {
          has_proc_ancestor = true;
        }
      }
    }
  }
  EXPECT_TRUE(has_proc_ancestor);
}

TEST_F(NfsTest, PnodeShardsDoNotCollide) {
  os::Pid pid = client_machine_.Spawn("c");
  ASSERT_TRUE(
      client_machine_.kernel().WriteFile(pid, "/mnt/nfs/remote", "r").ok());
  ASSERT_TRUE(client_machine_.kernel().WriteFile(pid, "/local", "l").ok());
  auto remote = client_machine_.pass()->RefOfPath("/mnt/nfs/remote");
  auto local = client_machine_.pass()->RefOfPath("/local");
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(local.ok());
  EXPECT_NE(remote->pnode >> 48, local->pnode >> 48);
}

TEST_F(NfsTest, LargeBundleUsesChunkedTransaction) {
  os::Pid pid = client_machine_.Spawn("bulk");
  core::LibPass lib = client_machine_.Lib(pid);
  auto fd = client_machine_.kernel().Open(
      pid, "/mnt/nfs/bulk.dat", os::kOpenWrite | os::kOpenCreate);
  ASSERT_TRUE(fd.ok());
  // ~200 KB of disclosed provenance forces OP_BEGINTXN + OP_PASSPROV x n.
  std::vector<core::Record> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back(core::Record::Annotation(
        "blob",
        std::to_string(i) + ":" + std::string(1024, 'a' + i % 26)));
  }
  auto n = lib.WriteFile(*fd, "payload", records);
  ASSERT_TRUE(n.ok());
  EXPECT_GE(client_fs_.client_stats().chunked_txns, 1u);
  EXPECT_GE(client_fs_.client_stats().prov_chunks, 3u);
  EXPECT_EQ(server_.stats().txns_committed, 1u);

  ASSERT_TRUE(server_machine_.waldo()->Drain().ok());
  auto pnodes = server_machine_.db()->PnodesByName("/mnt/nfs/bulk.dat");
  ASSERT_EQ(pnodes.size(), 1u);
  size_t blobs = 0;
  for (const core::Record& record :
       server_machine_.db()->RecordsOfAllVersions(pnodes[0])) {
    if (record.attr == core::Attr::kAnnotation && record.key == "blob") {
      ++blobs;
    }
  }
  EXPECT_EQ(blobs, 200u);
  EXPECT_EQ(*server_machine_.basefs().ReadFileRaw("/bulk.dat"), "payload");
}

TEST_F(NfsTest, FreezeTravelsAsRecordAndBumpsServerVersion) {
  os::Pid pid = client_machine_.Spawn("rmw");
  // Read-modify-write ping-pong forces the analyzer to freeze the remote
  // file; the freeze must reach the server as a record, not an op.
  ASSERT_TRUE(
      client_machine_.kernel().WriteFile(pid, "/mnt/nfs/f", "v0").ok());
  for (int i = 0; i < 3; ++i) {
    auto data = client_machine_.kernel().ReadFile(pid, "/mnt/nfs/f");
    ASSERT_TRUE(data.ok());
    ASSERT_TRUE(
        client_machine_.kernel().WriteFile(pid, "/mnt/nfs/f", *data + "+")
            .ok());
  }
  EXPECT_GT(server_.stats().freezes_applied, 0u);
  auto root = server_machine_.volume()->root();
  auto vnode = root->Lookup("f");
  ASSERT_TRUE(vnode.ok());
  EXPECT_GT((*vnode)->version(), 0u);
}

TEST_F(NfsTest, TwoClientsCanBranchVersions) {
  // Close-to-open consistency: both clients freeze from the same base
  // version and mint the same new version number (§6.1.2 accepts this).
  os::Pid pid = client_machine_.Spawn("a");
  ASSERT_TRUE(
      client_machine_.kernel().WriteFile(pid, "/mnt/nfs/shared", "base").ok());

  NfsClientFs client_b(&server_machine_.env(), &network_, &server_);
  auto root_a = client_fs_.root();
  auto root_b = client_b.root();
  auto file_a = root_a->Lookup("shared");
  auto file_b = root_b->Lookup("shared");
  ASSERT_TRUE(file_a.ok());
  ASSERT_TRUE(file_b.ok());
  core::Version base = (*file_a)->version();
  auto frozen_a = (*file_a)->PassFreeze();
  auto frozen_b = (*file_b)->PassFreeze();
  ASSERT_TRUE(frozen_a.ok());
  ASSERT_TRUE(frozen_b.ok());
  EXPECT_EQ(*frozen_a, base + 1);
  EXPECT_EQ(*frozen_b, base + 1);  // the branch
}

TEST_F(NfsTest, ClientCrashLeavesIdentifiableOrphan) {
  // A client begins a chunked transaction and dies before the commit. The
  // provenance is already on the server log (WAP). Crash recovery discards
  // it as orphaned; Waldo keeps the transaction open and never ingests it.
  lasagna::LasagnaFs* volume = server_machine_.volume();
  auto txn = volume->BeginExternalTxn();
  ASSERT_TRUE(txn.ok());
  core::Bundle chunk{core::BundleEntry{
      {9999, 0}, {core::Record::Name("/mnt/nfs/never-committed")}}};
  ASSERT_TRUE(volume->AppendExternalTxn(*txn, chunk).ok());
  // No commit: client crashed.
  ASSERT_TRUE(volume->ForceRotate().ok());
  auto report = lasagna::RunRecovery(&server_machine_.basefs());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->orphaned_txns, 1u);
  ASSERT_TRUE(server_machine_.waldo()->Drain().ok());
  EXPECT_EQ(server_machine_.waldo()->stats().open_txns, 1u);
  EXPECT_TRUE(
      server_machine_.db()->PnodesByName("/mnt/nfs/never-committed").empty());
}

TEST_F(NfsTest, RemoteMkobjAndRevive) {
  auto object = client_fs_.PassMkobj();
  ASSERT_TRUE(object.ok());
  core::PnodeId pnode = (*object)->pnode();
  EXPECT_EQ(pnode >> 48, 1u);  // allocated from the server's shard
  auto revived = client_fs_.PassReviveobj(pnode, 0);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)->pnode(), pnode);
  EXPECT_FALSE(client_fs_.PassReviveobj(424242, 0).ok());
}

TEST_F(NfsTest, Figure1CrossServerAncestry) {
  // Figure 1: inputs on one file server, outputs on another, computation on
  // the workstation. Only the integrated provenance can trace the output
  // back to the remote input.
  Machine server_b_machine(
      [&] {
        MachineOptions options;
        options.with_pass = true;
        options.shard = 3;
        options.shared_env = &server_machine_.env();
        return options;
      }());
  NfsServer server_b(&server_machine_.env(), server_b_machine.volume(),
                     "nfs2");
  NfsClientFs client_b(&server_machine_.env(), &network_, &server_b);
  ASSERT_TRUE(client_machine_.kernel().Mount("/mnt/out", &client_b).ok());
  client_machine_.pass()->AttachVolume(&client_b);

  // Seed the input on server A (out-of-band, like a colleague would).
  ASSERT_TRUE(
      server_machine_.basefs().SeedFile("/input.dat", "raw telescope data")
          .ok());

  os::Pid pid = client_machine_.Spawn("workflow");
  auto data = client_machine_.kernel().ReadFile(pid, "/mnt/nfs/input.dat");
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(client_machine_.kernel()
                  .WriteFile(pid, "/mnt/out/atlas-x.gif", "GIF:" + *data)
                  .ok());
  ASSERT_TRUE(server_b_machine.waldo()->Drain().ok());

  // Query server B's database: the output must (transitively) depend on a
  // pnode from server A's shard.
  auto outs = server_b_machine.db()->PnodesByName("/mnt/out/atlas-x.gif");
  ASSERT_EQ(outs.size(), 1u);
  bool found_remote_input = false;
  std::set<core::ObjectRef> seen;
  std::vector<core::ObjectRef> stack;
  for (core::Version v : server_b_machine.db()->VersionsOf(outs[0])) {
    stack.push_back({outs[0], v});
  }
  while (!stack.empty()) {
    core::ObjectRef ref = stack.back();
    stack.pop_back();
    if (!seen.insert(ref).second) {
      continue;
    }
    if (ref.pnode >> 48 == 1) {
      found_remote_input = true;  // server A's shard
    }
    for (const core::ObjectRef& input :
         server_b_machine.db()->Inputs(ref)) {
      stack.push_back(input);
    }
  }
  EXPECT_TRUE(found_remote_input);
}

TEST_F(NfsTest, CrashRecoveryOnServerLog) {
  os::Pid pid = client_machine_.Spawn("w");
  ASSERT_TRUE(
      client_machine_.kernel().WriteFile(pid, "/mnt/nfs/x", "payload").ok());
  auto report = lasagna::RunRecovery(&server_machine_.basefs());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->inconsistent_extents, 0u);
  EXPECT_GT(report->filter.committed_txns, 0u);
}

// An untrusted pass_prov request whose bundle claims 2^32-1 entries gets an
// error response; the server never tries to allocate for the claimed count.
TEST_F(NfsTest, PassProvWithCorruptBundleCountIsRejected) {
  NfsRequest request;
  request.op = NfsOp::kPassProv;
  request.bundle = "\xFF\xFF\xFF\xFF";
  NfsResponse response;
  EXPECT_NO_THROW(response = server_.Handle(request));
  EXPECT_EQ(response.code, Code::kCorrupt) << response.error;
}

// Pins the simulated cost model: a reduced Postmark's elapsed nanoseconds on
// ext3, PASSv2 and a root-mounted PA-NFS client (bench/table2_elapsed's
// configurations). A cost constant that changes by accident fails here; a
// deliberate model change updates the expected values.
TEST(CostModelTest, PostmarkElapsedNanosArePinned) {
  workloads::PostmarkParams params;
  params.initial_files = 30;
  params.transactions = 120;
  params.subdirectories = 4;
  auto elapsed_ns = [&params](Machine* machine) {
    sim::Nanos start = machine->env().clock().now();
    workloads::RunPostmark(machine, params);
    return machine->env().clock().now() - start;
  };

  Machine ext3{MachineOptions{}};
  EXPECT_EQ(elapsed_ns(&ext3), 660225288);

  MachineOptions pass_options;
  pass_options.with_pass = true;
  Machine passv2(pass_options);
  EXPECT_EQ(elapsed_ns(&passv2), 986313015);

  MachineOptions server_options;
  server_options.with_pass = true;
  server_options.shard = 1;
  Machine server(server_options);
  sim::Network network(&server.env().clock());
  NfsServer nfs_server(&server.env(), server.volume(), "nfs");
  NfsClientFs client_fs(&server.env(), &network, &nfs_server);
  MachineOptions client_options;
  client_options.with_pass = true;
  client_options.shard = 2;
  client_options.shared_env = &server.env();
  client_options.root_fs = &client_fs;
  Machine client(client_options);
  EXPECT_EQ(elapsed_ns(&client), 1283498442);
}

}  // namespace
}  // namespace pass::nfs
