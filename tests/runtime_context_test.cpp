// Raw machine-context switching: the substrate for suspend/restart.
#include "runtime/context.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

namespace {

struct PingPong {
  st::MachineContext main_ctx;
  st::MachineContext coro_ctx;
  std::vector<int> trace;
};

st::ContextExit coro_body(void* msg, void* arg) {
  st::run_switch_msg(static_cast<st::SwitchMsg*>(msg));
  auto* pp = static_cast<PingPong*>(arg);
  pp->trace.push_back(1);
  st::ctx_swap(pp->coro_ctx, pp->main_ctx.sp, nullptr);
  pp->trace.push_back(3);
  st::ctx_swap(pp->coro_ctx, pp->main_ctx.sp, nullptr);
  ADD_FAILURE() << "coroutine resumed after its final yield";
  return {pp->main_ctx.sp, nullptr};
}

TEST(Context, PingPongPreservesControlFlow) {
  PingPong pp;
  auto stack = std::make_unique<char[]>(64 * 1024);
  void* sp = st::st_ctx_prepare(stack.get(), 64 * 1024, &coro_body, &pp);

  pp.trace.push_back(0);
  st::ctx_swap(pp.main_ctx, sp, nullptr);  // -> coro pushes 1, yields
  pp.trace.push_back(2);
  st::ctx_swap(pp.main_ctx, pp.coro_ctx.sp, nullptr);  // -> coro pushes 3, yields
  pp.trace.push_back(4);

  EXPECT_EQ(pp.trace, (std::vector<int>{0, 1, 2, 3, 4}));
}

struct MsgProbe {
  st::MachineContext main_ctx;
  st::MachineContext coro_ctx;
  int actions_run = 0;
};

void msg_action(void* arg) { ++static_cast<MsgProbe*>(arg)->actions_run; }

st::ContextExit msg_coro(void* msg, void* arg) {
  auto* probe = static_cast<MsgProbe*>(arg);
  // The message handed to the very first entry must be delivered.
  st::run_switch_msg(static_cast<st::SwitchMsg*>(msg));
  st::ctx_swap(probe->coro_ctx, probe->main_ctx.sp, nullptr);
  ADD_FAILURE() << "resumed after final yield";
  return {probe->main_ctx.sp, nullptr};
}

TEST(Context, SwitchMsgRunsOnDestination) {
  MsgProbe probe;
  auto stack = std::make_unique<char[]>(64 * 1024);
  void* sp = st::st_ctx_prepare(stack.get(), 64 * 1024, &msg_coro, &probe);
  st::SwitchMsg msg{&msg_action, &probe};
  st::ctx_swap(probe.main_ctx, sp, &msg);
  EXPECT_EQ(probe.actions_run, 1);
}

// Callee-saved registers must survive a round trip through a context
// switch -- this is exactly the "invalid frame" problem of the paper's
// Section 3.4, solved there by saving/restoring callee-save registers
// around restart.  Deep local state before/after the swap smokes it out.
struct RegTorture {
  st::MachineContext main_ctx;
  st::MachineContext coro_ctx;
};

st::ContextExit torture_coro(void* msg, void* arg) {
  st::run_switch_msg(static_cast<st::SwitchMsg*>(msg));
  auto* t = static_cast<RegTorture*>(arg);
  // Clobber everything clobberable.
  volatile long sink = 0;
  for (long i = 0; i < 64; ++i) sink = sink + i * i;
  st::ctx_swap(t->coro_ctx, t->main_ctx.sp, nullptr);
  ADD_FAILURE() << "resumed after final yield";
  return {t->main_ctx.sp, nullptr};
}

TEST(Context, CalleeSavedRegistersSurvive) {
  RegTorture t;
  auto stack = std::make_unique<char[]>(64 * 1024);
  void* sp = st::st_ctx_prepare(stack.get(), 64 * 1024, &torture_coro, &t);
  long a = 0x1111, b = 0x2222, c = 0x3333, d = 0x4444, e = 0x5555, f = 0x6666;
  // Force the values into registers across the call.
  asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f));
  st::ctx_swap(t.main_ctx, sp, nullptr);
  asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f));
  EXPECT_EQ(a, 0x1111);
  EXPECT_EQ(b, 0x2222);
  EXPECT_EQ(c, 0x3333);
  EXPECT_EQ(d, 0x4444);
  EXPECT_EQ(e, 0x5555);
  EXPECT_EQ(f, 0x6666);
}

// An entry function that returns names the context to continue: the
// exit tail (shared by st_ctx_boot and st_ctx_fork) switches there and
// delivers the msg as the apparent return value of that context's switch.
struct ExitProbe {
  st::MachineContext main_ctx;
  st::SwitchMsg msg;
  int actions_run = 0;
  int entered = 0;
};

void exit_action(void* arg) { ++static_cast<ExitProbe*>(arg)->actions_run; }

st::ContextExit returning_entry(void* msg, void* arg) {
  st::run_switch_msg(static_cast<st::SwitchMsg*>(msg));
  auto* probe = static_cast<ExitProbe*>(arg);
  ++probe->entered;
  return {probe->main_ctx.sp, &probe->msg};
}

TEST(Context, PreparedEntryReturnSwitchesToNamedContext) {
  ExitProbe probe;
  probe.msg = st::SwitchMsg{&exit_action, &probe};
  auto stack = std::make_unique<char[]>(64 * 1024);
  void* sp = st::st_ctx_prepare(stack.get(), 64 * 1024, &returning_entry, &probe);
  st::SwitchMsg* back = st::ctx_swap(probe.main_ctx, sp, nullptr);
  EXPECT_EQ(back, &probe.msg);
  st::run_switch_msg(back);
  EXPECT_EQ(probe.entered, 1);
  EXPECT_EQ(probe.actions_run, 1);
}

TEST(Context, ForkEntryReturnResumesTheForker) {
  ExitProbe probe;
  probe.msg = st::SwitchMsg{&exit_action, &probe};
  auto stack = std::make_unique<char[]>(64 * 1024);
  long a = 0x1111, b = 0x2222, c = 0x3333, d = 0x4444, e = 0x5555, f = 0x6666;
  asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f));
  // The entry returns the forker's own saved context: st_ctx_fork's tail
  // `ret`s straight back to this call site.
  for (int i = 0; i < 3; ++i) {
    void* back = st::st_ctx_fork(&probe.main_ctx.sp, stack.get() + 64 * 1024,
                                 &returning_entry, &probe);
    EXPECT_EQ(back, &probe.msg);
    st::run_switch_msg(static_cast<st::SwitchMsg*>(back));
  }
  asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f));
  EXPECT_EQ(probe.entered, 3);
  EXPECT_EQ(probe.actions_run, 3);
  EXPECT_EQ(a + b + c + d + e + f, 0x1111 + 0x2222 + 0x3333 + 0x4444 + 0x5555 + 0x6666);
}

TEST(Context, PrepareAlignsStackTop) {
  alignas(16) char stack[4096 + 8];
  // Deliberately misaligned base: prepare must still produce a SysV-valid
  // initial frame.
  void* sp = st::st_ctx_prepare(stack + 3, 4096, &msg_coro, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(sp) % 8, 0u);
}

}  // namespace
