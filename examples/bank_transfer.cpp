// Bank-transfer workload: database-style transactions as m-operations.
//
//   ./bank_transfer [--protocol=mlin] [--processes=4] [--accounts=16]
//                   [--transfers=200] [--initial=100] [--delay=lan]
//                   [--seed=7] [--audit-every=0]
//
// Each transfer is ONE m-operation — r(from) w(from) r(to) w(to) executed
// atomically — exactly the "transaction as an atomic operation on
// multiple data items" the paper's introduction motivates. The demo
// hammers random transfers from every process, then verifies the two
// properties that only hold if multi-object atomicity actually worked:
//   1. conservation: the sum of all balances is unchanged;
//   2. no overdraft: no balance ever goes negative (each transfer checks
//      funds and the check and the debit are in the same m-operation).
// Finally the recorded history is checked against m-linearizability.
#include <cstdio>
#include <vector>

#include "api/system.hpp"
#include "core/verdict.hpp"
#include "mscript/library.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace mocc;
  util::CliArgs args(argc, argv);

  const auto accounts = static_cast<std::size_t>(args.get_int("accounts", 16));
  const auto transfers = static_cast<std::size_t>(args.get_int("transfers", 200));
  const auto initial = args.get_int("initial", 100);

  api::SystemConfig config;
  config.protocol = args.get_string("protocol", "mlin");
  config.num_processes = static_cast<std::size_t>(args.get_int("processes", 4));
  config.num_objects = accounts;
  config.delay = args.get_string("delay", "lan");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  std::printf("bank_transfer: %zu accounts x %lld, %zu transfers, protocol=%s\n",
              accounts, static_cast<long long>(initial), transfers,
              config.protocol.c_str());

  api::System system(config);
  util::Rng rng(config.seed);

  // Seed all balances with one atomic m-register assignment.
  std::vector<mscript::ObjectId> all(accounts);
  std::vector<mscript::Value> balances(accounts, initial);
  for (std::size_t i = 0; i < accounts; ++i) all[i] = static_cast<mscript::ObjectId>(i);
  system.submit(0, 1, mscript::lib::make_m_assign(all, balances));
  system.run();

  // Random transfers from every process, plus periodic auditors reading
  // the global sum mid-flight: under m-linearizability every such read
  // must see exactly the conserved total.
  std::size_t succeeded = 0;
  std::size_t refused = 0;
  std::vector<std::int64_t> audit_sums;
  util::Summary latency;
  for (std::size_t i = 0; i < transfers; ++i) {
    const auto p = static_cast<core::ProcessId>(i % config.num_processes);
    auto from = static_cast<mscript::ObjectId>(rng.next_below(accounts));
    auto to = static_cast<mscript::ObjectId>(rng.next_below(accounts));
    if (to == from) to = static_cast<mscript::ObjectId>((to + 1) % accounts);
    const auto amount = rng.next_in(1, initial / 2);
    system.submit(p, 10, mscript::lib::make_transfer(from, to, amount),
                  [&](const protocols::InvocationOutcome& out) {
                    latency.add(static_cast<double>(out.response - out.invoke));
                    if (out.return_value == 1) {
                      ++succeeded;
                    } else {
                      ++refused;
                    }
                  });
    if (i % 25 == 24) {
      system.submit(p, 10, mscript::lib::make_sum(all),
                    [&](const protocols::InvocationOutcome& out) {
                      audit_sums.push_back(out.return_value);
                    });
    }
  }
  system.run();

  // Final balance sheet.
  std::int64_t total = -1;
  std::vector<std::int64_t> final_balances;
  system.submit(0, 1'000'000, mscript::lib::make_sum(all),
                [&](const protocols::InvocationOutcome& out) {
                  total = out.return_value;
                });
  for (std::size_t i = 0; i < accounts; ++i) {
    system.submit(0, 1'000'001, mscript::lib::make_read(static_cast<mscript::ObjectId>(i)),
                  [&](const protocols::InvocationOutcome& out) {
                    final_balances.push_back(out.return_value);
                  });
  }
  system.run();

  std::printf("transfers: %zu ok, %zu refused (insufficient funds)\n", succeeded,
              refused);
  std::printf("transfer latency (virtual ticks): %s\n", latency.brief().c_str());

  const std::int64_t expected = static_cast<std::int64_t>(accounts) * initial;
  bool ok = true;
  if (total != expected) {
    std::printf("CONSERVATION VIOLATED: total=%lld expected=%lld\n",
                static_cast<long long>(total), static_cast<long long>(expected));
    ok = false;
  } else {
    std::printf("conservation holds: total=%lld\n", static_cast<long long>(total));
  }
  for (const auto sum : audit_sums) {
    if (sum != expected) {
      std::printf("MID-FLIGHT AUDIT SAW TORN STATE: sum=%lld\n",
                  static_cast<long long>(sum));
      ok = false;
    }
  }
  std::printf("%zu mid-flight audits all saw the conserved total\n",
              audit_sums.size());
  for (const auto b : final_balances) {
    if (b < 0) {
      std::printf("OVERDRAFT: balance=%lld\n", static_cast<long long>(b));
      ok = false;
    }
  }

  // The recorded history is large; the Theorem-7 polynomial check covers
  // it for every protocol, over the ~ww ranks each records (abcast
  // positions, or lock points for the 2PL baselines).
  if (system.supports_audit()) {
    const auto audit = system.audit();
    std::printf("P5.x audit: %s\n", audit.ok ? "ok" : audit.to_string().c_str());
    ok = ok && audit.ok;
  }
  const core::Verdict verdict = core::check_history(
      system.history(), core::Condition::kMLinearizability, system.recorder().ww_ranks(), 0);
  const bool admissible = verdict.ok() && verdict.fast.has_value();
  std::printf("Theorem-7 m-linearizability: %s\n",
              admissible ? "admissible" : verdict.detail.c_str());
  ok = ok && admissible;
  return ok ? 0 : 1;
}
