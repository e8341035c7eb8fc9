// End-to-end tests of the PASSv2 core: kernel syscalls -> interceptor ->
// observer -> analyzer -> distributor -> Lasagna -> Waldo -> ProvDb,
// including the DPAPI disclosure path used by provenance-aware apps.

#include <gtest/gtest.h>

#include <set>

#include "src/core/libpass.h"
#include "src/workloads/machine.h"

namespace pass::core {
namespace {

using workloads::Machine;
using workloads::MachineOptions;

class CoreSystemTest : public ::testing::Test {
 protected:
  CoreSystemTest() : machine_(PassOptions()) {}

  static MachineOptions PassOptions() {
    MachineOptions options;
    options.with_pass = true;
    return options;
  }

  // True iff `descendant` transitively descends from `ancestor_pnode` in
  // the database (follows INPUT edges across versions).
  bool DescendsFrom(ObjectRef descendant, PnodeId ancestor_pnode) {
    std::set<ObjectRef> seen;
    std::vector<ObjectRef> stack{descendant};
    while (!stack.empty()) {
      ObjectRef ref = stack.back();
      stack.pop_back();
      if (!seen.insert(ref).second) {
        continue;
      }
      if (ref.pnode == ancestor_pnode) {
        return true;
      }
      for (const ObjectRef& input : machine_.db()->Inputs(ref)) {
        stack.push_back(input);
      }
      // Also walk the same object's earlier versions.
      for (Version v : machine_.db()->VersionsOf(ref.pnode)) {
        if (v < ref.version) {
          stack.push_back(ObjectRef{ref.pnode, v});
        }
      }
    }
    return false;
  }

  // Any version of the named file descends from any version of ancestor.
  bool FileDescendsFrom(const std::string& path, PnodeId ancestor) {
    for (PnodeId pnode : machine_.db()->PnodesByName(path)) {
      for (Version v : machine_.db()->VersionsOf(pnode)) {
        if (DescendsFrom(ObjectRef{pnode, v}, ancestor)) {
          return true;
        }
      }
    }
    return false;
  }

  Machine machine_;
};

TEST_F(CoreSystemTest, WriteCreatesFileToProcessEdge) {
  os::Pid pid = machine_.Spawn("writer");
  ASSERT_TRUE(machine_.kernel().WriteFile(pid, "/out.txt", "payload").ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());

  auto pnodes = machine_.db()->PnodesByName("/out.txt");
  ASSERT_EQ(pnodes.size(), 1u);
  ObjectRef proc = machine_.pass()->RefOfPid(pid);
  EXPECT_TRUE(FileDescendsFrom("/out.txt", proc.pnode));
}

TEST_F(CoreSystemTest, ProcessRecordsReachDatabase) {
  os::Pid pid = machine_.Spawn("tool");
  ASSERT_TRUE(machine_.kernel()
                  .Exec(pid, "/bin/tool", {"tool", "--fast"}, {"HOME=/root"})
                  .ok());
  ASSERT_TRUE(machine_.kernel().WriteFile(pid, "/out", "x").ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());

  ObjectRef proc = machine_.pass()->RefOfPid(pid);
  auto records = machine_.db()->RecordsOfAllVersions(proc.pnode);
  std::set<std::string> seen;
  for (const Record& record : records) {
    seen.insert(std::string(AttrName(record.attr)));
  }
  EXPECT_TRUE(seen.count("TYPE"));
  EXPECT_TRUE(seen.count("NAME"));
  EXPECT_TRUE(seen.count("PID"));
  EXPECT_TRUE(seen.count("ARGV"));
  EXPECT_TRUE(seen.count("ENV"));
}

TEST_F(CoreSystemTest, ReadThenWriteLinksInputToOutput) {
  os::Pid setup = machine_.Spawn("setup");
  ASSERT_TRUE(machine_.kernel().WriteFile(setup, "/input.dat", "in").ok());

  os::Pid worker = machine_.Spawn("worker");
  auto data = machine_.kernel().ReadFile(worker, "/input.dat");
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(machine_.kernel().WriteFile(worker, "/output.dat", *data).ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());

  auto in_pnodes = machine_.db()->PnodesByName("/input.dat");
  ASSERT_EQ(in_pnodes.size(), 1u);
  EXPECT_TRUE(FileDescendsFrom("/output.dat", in_pnodes[0]));
}

TEST_F(CoreSystemTest, ReadvLinksInputToOutput) {
  os::Pid setup = machine_.Spawn("setup");
  ASSERT_TRUE(machine_.kernel().WriteFile(setup, "/v.dat", "abcdef").ok());

  os::Pid worker = machine_.Spawn("worker");
  auto fd = machine_.kernel().Open(worker, "/v.dat", os::kOpenRead);
  ASSERT_TRUE(fd.ok());
  std::vector<std::string> pieces;
  auto n = machine_.kernel().Readv(worker, *fd, {2, 4}, &pieces);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 6u);
  EXPECT_EQ(pieces, (std::vector<std::string>{"ab", "cdef"}));
  ASSERT_TRUE(machine_.kernel().Close(worker, *fd).ok());
  ASSERT_TRUE(machine_.kernel().WriteFile(worker, "/v.out", "x").ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());

  auto in_pnodes = machine_.db()->PnodesByName("/v.dat");
  ASSERT_EQ(in_pnodes.size(), 1u);
  EXPECT_TRUE(FileDescendsFrom("/v.out", in_pnodes[0]));
}

TEST_F(CoreSystemTest, MmapRecordsTheProcessAsInputOnlyWhenWritable) {
  // A read-only mapping makes the file an input of the process; a writable
  // one also makes the process an input of the file, and carries what the
  // process read into the file's ancestry without a later write().
  os::Pid setup = machine_.Spawn("setup");
  for (const char* path : {"/secret", "/lib.so", "/shared"}) {
    ASSERT_TRUE(machine_.kernel().WriteFile(setup, path, "bytes").ok());
  }
  os::Pid mapper = machine_.Spawn("mapper");
  auto secret = machine_.kernel().Open(mapper, "/secret", os::kOpenRead);
  ASSERT_TRUE(secret.ok());
  std::string buf;
  ASSERT_TRUE(machine_.kernel().Read(mapper, *secret, 5, &buf).ok());
  auto lib = machine_.kernel().Open(mapper, "/lib.so", os::kOpenRead);
  ASSERT_TRUE(lib.ok());
  ASSERT_TRUE(machine_.kernel().Mmap(mapper, *lib, /*writable=*/false).ok());
  auto shared = machine_.kernel().Open(mapper, "/shared",
                                       os::kOpenRead | os::kOpenWrite);
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(machine_.kernel().Mmap(mapper, *shared, /*writable=*/true).ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());

  EXPECT_EQ(machine_.pass()->observer_stats().mmaps, 2u);
  PnodeId process = machine_.pass()->RefOfPid(mapper).pnode;
  auto secret_pnodes = machine_.db()->PnodesByName("/secret");
  auto lib_pnodes = machine_.db()->PnodesByName("/lib.so");
  ASSERT_EQ(secret_pnodes.size(), 1u);
  ASSERT_EQ(lib_pnodes.size(), 1u);
  EXPECT_TRUE(FileDescendsFrom("/shared", process));
  EXPECT_TRUE(FileDescendsFrom("/shared", secret_pnodes[0]));
  EXPECT_TRUE(FileDescendsFrom("/shared", lib_pnodes[0]));
  EXPECT_FALSE(FileDescendsFrom("/lib.so", process));
}

TEST_F(CoreSystemTest, PipelineFlowsThroughPipe) {
  // producer | consumer > /sink: the sink must descend from the producer
  // through the pipe object.
  os::Pid producer = machine_.Spawn("producer");
  auto fds = machine_.kernel().Pipe(producer);
  ASSERT_TRUE(fds.ok());
  auto [rfd, wfd] = *fds;
  ASSERT_TRUE(machine_.kernel().Write(producer, wfd, "stream").ok());

  auto consumer = machine_.kernel().Fork(producer);
  ASSERT_TRUE(consumer.ok());
  std::string buf;
  ASSERT_TRUE(machine_.kernel().Read(*consumer, rfd, 6, &buf).ok());
  ASSERT_TRUE(machine_.kernel().WriteFile(*consumer, "/sink", buf).ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());

  ObjectRef producer_ref = machine_.pass()->RefOfPid(producer);
  EXPECT_TRUE(FileDescendsFrom("/sink", producer_ref.pnode));
  // And a PIPE-typed object exists in the chain.
  bool pipe_seen = false;
  for (PnodeId pnode : machine_.db()->AllPnodes()) {
    for (const Record& record : machine_.db()->RecordsOfAllVersions(pnode)) {
      if (record.attr == Attr::kType &&
          std::get<std::string>(record.value) == "PIPE") {
        pipe_seen = true;
      }
    }
  }
  EXPECT_TRUE(pipe_seen);
}

TEST_F(CoreSystemTest, ForkChainsChildToParent) {
  os::Pid parent = machine_.Spawn("parent");
  auto child = machine_.kernel().Fork(parent);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(machine_.kernel().WriteFile(*child, "/from-child", "x").ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());
  ObjectRef parent_ref = machine_.pass()->RefOfPid(parent);
  EXPECT_TRUE(FileDescendsFrom("/from-child", parent_ref.pnode));
}

TEST_F(CoreSystemTest, ExecBinaryBecomesAncestor) {
  os::Pid setup = machine_.Spawn("setup");
  ASSERT_TRUE(machine_.kernel().Mkdir(setup, "/bin").ok());
  ASSERT_TRUE(machine_.kernel().WriteFile(setup, "/bin/tool", "ELF").ok());
  os::Pid pid = machine_.Spawn("sh");
  ASSERT_TRUE(machine_.kernel().Exec(pid, "/bin/tool", {"tool"}).ok());
  ASSERT_TRUE(machine_.kernel().WriteFile(pid, "/result", "out").ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());
  auto bin = machine_.db()->PnodesByName("/bin/tool");
  ASSERT_EQ(bin.size(), 1u);
  EXPECT_TRUE(FileDescendsFrom("/result", bin[0]));
}

TEST_F(CoreSystemTest, ReadModifyWriteCreatesVersions) {
  os::Pid pid = machine_.Spawn("rmw");
  ASSERT_TRUE(machine_.kernel().WriteFile(pid, "/f", "v0").ok());
  for (int i = 0; i < 3; ++i) {
    auto data = machine_.kernel().ReadFile(pid, "/f");
    ASSERT_TRUE(data.ok());
    ASSERT_TRUE(machine_.kernel().WriteFile(pid, "/f", *data + "+").ok());
  }
  ASSERT_TRUE(machine_.waldo()->Drain().ok());
  auto pnodes = machine_.db()->PnodesByName("/f");
  ASSERT_EQ(pnodes.size(), 1u);
  // The read-write ping-pong must have produced multiple versions.
  EXPECT_GT(machine_.db()->VersionsOf(pnodes[0]).size(), 1u);
  EXPECT_GT(machine_.pass()->analyzer_stats().freezes, 0u);
}

TEST_F(CoreSystemTest, RenamePreservesProvenanceAddsName) {
  os::Pid pid = machine_.Spawn("patcher");
  ASSERT_TRUE(machine_.kernel().WriteFile(pid, "/f.tmp", "data").ok());
  auto before = machine_.pass()->RefOfPath("/f.tmp");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(machine_.kernel().Rename(pid, "/f.tmp", "/f").ok());
  auto after = machine_.pass()->RefOfPath("/f");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->pnode, after->pnode);  // provenance follows the file
  ASSERT_TRUE(machine_.waldo()->Drain().ok());
  auto by_new_name = machine_.db()->PnodesByName("/f");
  ASSERT_EQ(by_new_name.size(), 1u);
  EXPECT_EQ(by_new_name[0], before->pnode);
}

TEST_F(CoreSystemTest, MkobjSyncPersistsApplicationObject) {
  os::Pid pid = machine_.Spawn("app");
  LibPass lib = machine_.Lib(pid);
  auto session = lib.Mkobj();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(lib.Write(*session, {Record::Type("SESSION"),
                                   Record::Of(Attr::kVisitedUrl,
                                              std::string("http://x/"))})
                  .ok());
  // Not yet an ancestor of anything persistent: sync forces it out (§5.2).
  ASSERT_TRUE(lib.Sync(*session).ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());
  auto sessions = machine_.db()->PnodesByType("SESSION");
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0], session->pnode);
}

TEST_F(CoreSystemTest, DiscloseFileWriteLinksApplicationObject) {
  os::Pid pid = machine_.Spawn("browser");
  LibPass lib = machine_.Lib(pid);
  auto session = lib.Mkobj();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(lib.Write(*session, {Record::Type("SESSION")}).ok());

  auto fd = machine_.kernel().Open(
      pid, "/download.bin", os::kOpenWrite | os::kOpenCreate);
  ASSERT_TRUE(fd.ok());
  auto session_ref = lib.Ref(*session);
  ASSERT_TRUE(session_ref.ok());
  auto n = lib.WriteFile(
      *fd, "GIF89a...",
      {Record::Input(*session_ref),
       Record::Of(Attr::kFileUrl, std::string("http://evil/codec.bin"))});
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(machine_.kernel().Close(pid, *fd).ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());

  EXPECT_TRUE(FileDescendsFrom("/download.bin", session->pnode));
  // The URL annotation must be queryable.
  bool url_seen = false;
  for (PnodeId pnode : machine_.db()->PnodesByName("/download.bin")) {
    for (const Record& record : machine_.db()->RecordsOfAllVersions(pnode)) {
      if (record.attr == Attr::kFileUrl) {
        url_seen = true;
      }
    }
  }
  EXPECT_TRUE(url_seen);
}

TEST_F(CoreSystemTest, DpapiReadReturnsExactIdentity) {
  os::Pid pid = machine_.Spawn("reader");
  ASSERT_TRUE(machine_.kernel().WriteFile(pid, "/src", "contents").ok());
  auto fd = machine_.kernel().Open(pid, "/src", os::kOpenRead);
  ASSERT_TRUE(fd.ok());
  LibPass lib = machine_.Lib(pid);
  auto result = lib.Read(*fd, 8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->data, "contents");
  auto path_ref = machine_.pass()->RefOfPath("/src");
  ASSERT_TRUE(path_ref.ok());
  EXPECT_EQ(result->source.pnode, path_ref->pnode);
}

TEST_F(CoreSystemTest, ReviveObjRestoresHandle) {
  os::Pid pid = machine_.Spawn("firefox");
  LibPass lib = machine_.Lib(pid);
  auto session = lib.Mkobj();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(lib.Write(*session, {Record::Type("SESSION")}).ok());
  auto ref = lib.Ref(*session);
  ASSERT_TRUE(ref.ok());

  // "Restart" the application and revive the session object.
  os::Pid pid2 = machine_.Spawn("firefox-restarted");
  LibPass lib2 = machine_.Lib(pid2);
  auto revived = lib2.Revive(ref->pnode, ref->version);
  ASSERT_TRUE(revived.ok());
  ASSERT_TRUE(
      lib2.Write(*revived,
                 {Record::Of(Attr::kVisitedUrl, std::string("http://b/"))})
          .ok());
  ASSERT_TRUE(lib2.Sync(*revived).ok());
  ASSERT_TRUE(machine_.waldo()->Drain().ok());

  auto records = machine_.db()->RecordsOfAllVersions(session->pnode);
  bool visited = false;
  for (const Record& record : records) {
    visited |= record.attr == Attr::kVisitedUrl;
  }
  EXPECT_TRUE(visited);
}

TEST_F(CoreSystemTest, DuplicateRecordsSuppressed) {
  os::Pid pid = machine_.Spawn("chatty");
  auto fd = machine_.kernel().Open(pid, "/log",
                                   os::kOpenWrite | os::kOpenCreate);
  ASSERT_TRUE(fd.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(machine_.kernel().Write(pid, *fd, "chunk").ok());
  }
  ASSERT_TRUE(machine_.kernel().Close(pid, *fd).ok());
  EXPECT_GT(machine_.pass()->analyzer_stats().duplicates_dropped, 40u);
}

TEST_F(CoreSystemTest, ObserverCountsEvents) {
  os::Pid pid = machine_.Spawn("events");
  ASSERT_TRUE(machine_.kernel().WriteFile(pid, "/a", "1").ok());
  (void)machine_.kernel().ReadFile(pid, "/a");
  auto fds = machine_.kernel().Pipe(pid);
  ASSERT_TRUE(fds.ok());
  ASSERT_TRUE(machine_.kernel().Exit(pid, 0).ok());
  const ObserverStats& stats = machine_.pass()->observer_stats();
  EXPECT_GE(stats.process_starts, 1u);
  EXPECT_GE(stats.writes, 1u);
  EXPECT_GE(stats.reads, 1u);
  EXPECT_GE(stats.pipes, 1u);
  EXPECT_GE(stats.exits, 1u);
  EXPECT_GE(stats.opens, 2u);
}

TEST_F(CoreSystemTest, PassRunIsSlowerThanVanilla) {
  // Sanity for Table 2's direction: the same workload on a vanilla machine
  // must be faster than on the PASS machine.
  Machine vanilla{MachineOptions{}};
  os::Pid vp = vanilla.Spawn("w");
  os::Pid pp = machine_.Spawn("w");
  for (int i = 0; i < 50; ++i) {
    std::string name = "/data" + std::to_string(i);
    std::string payload(4096, 'x');
    ASSERT_TRUE(vanilla.kernel().WriteFile(vp, name, payload).ok());
    ASSERT_TRUE(machine_.kernel().WriteFile(pp, name, payload).ok());
  }
  EXPECT_GT(machine_.elapsed_seconds(), vanilla.elapsed_seconds());
}

}  // namespace
}  // namespace pass::core
