// geo_commerce: an e-commerce-style workload — the class of application the
// paper's introduction motivates — on the five-datacenter Table 2 topology.
//
// Order placement is a serializable read-modify-write transaction (read the
// stock level, decrement it, append an order row); regional dashboards use
// read-only snapshot transactions (Appendix B) that never contend with the
// order stream. The example shows per-region order latency, that oversold
// stock never happens (serializability at work), and that the dashboards
// are cheap and local.
//
//   $ ./build/examples/geo_commerce

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/helios_cluster.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "sim/network.h"
#include "sim/scheduler.h"

using namespace helios;

namespace {

constexpr int kProducts = 40;
constexpr int kInitialStock = 500;

std::string StockKey(int product) {
  return "stock/p" + std::to_string(product);
}

}  // namespace

int main() {
  const harness::Topology topo = harness::Table2Topology();
  sim::Scheduler scheduler;
  sim::Network network(&scheduler, topo.size(), /*seed=*/2026);
  harness::ConfigureNetwork(topo, &network);

  core::HeliosConfig config;
  config.num_datacenters = topo.size();
  config.commit_offsets = harness::PlanCommitOffsets(topo, std::nullopt);
  config.fault_tolerance = 1;  // Survive one regional outage.
  core::HeliosCluster cluster(&scheduler, &network, std::move(config));

  InitialRows stock;
  for (int p = 0; p < kProducts; ++p) {
    stock.emplace_back(StockKey(p), std::to_string(kInitialStock));
  }
  cluster.LoadInitialAll(stock);
  cluster.Start();

  // Per-region storefront: loop placing orders for random products.
  struct RegionStats {
    StatAccumulator latency_ms;
    int orders = 0;
    int rejected = 0;
  };
  auto stats = std::make_shared<std::map<DcId, RegionStats>>();
  auto rng = std::make_shared<Rng>(99);
  auto orders_placed = std::make_shared<uint64_t>(0);

  auto place_order = std::make_shared<std::function<void(DcId)>>();
  *place_order = [&, place_order, stats, rng, orders_placed](DcId region) {
    if (scheduler.Now() > Seconds(20)) return;
    const int product = static_cast<int>(rng->Uniform(kProducts));
    cluster.ClientRead(region, StockKey(product), [&, place_order, stats, rng,
                                                   orders_placed, region,
                                                   product](
                                                      Result<VersionedValue>
                                                          r) {
      if (!r.ok()) return;
      const int stock = std::atoi(r.value().value.c_str());
      if (stock <= 0) {
        // Sold out: no transaction needed.
        (*stats)[region].rejected++;
        scheduler.After(Millis(5), [place_order, region] {
          (*place_order)(region);
        });
        return;
      }
      ReadEntry read{StockKey(product), r.value().ts, r.value().writer};
      const uint64_t order_id = ++*orders_placed;
      const sim::SimTime start = scheduler.Now();
      cluster.ClientCommit(
          region, {read},
          {{StockKey(product), std::to_string(stock - 1)},
           {"order/" + std::to_string(order_id),
            "product=" + std::to_string(product) +
                ";region=" + std::to_string(region)}},
          [&, place_order, stats, region, start](const CommitOutcome& o) {
            RegionStats& s = (*stats)[region];
            if (o.committed) {
              s.orders++;
              s.latency_ms.Add(ToMillis(scheduler.Now() - start));
            } else {
              s.rejected++;  // Lost the race for the last items: retry-able.
            }
            (*place_order)(region);
          });
    });
  };

  for (DcId region = 0; region < topo.size(); ++region) {
    for (int c = 0; c < 3; ++c) {
      scheduler.At(Millis(c + 1), [place_order, region] {
        (*place_order)(region);
      });
    }
  }

  // A dashboard in Ireland polls total remaining stock with read-only
  // snapshot transactions.
  auto dashboard_runs = std::make_shared<int>(0);
  auto dashboard = std::make_shared<std::function<void()>>();
  *dashboard = [&, dashboard, dashboard_runs] {
    if (scheduler.Now() > Seconds(20)) return;
    std::vector<Key> keys;
    for (int p = 0; p < kProducts; ++p) keys.push_back(StockKey(p));
    cluster.ClientReadOnly(
        3, keys, [&, dashboard, dashboard_runs](
                     std::vector<Result<VersionedValue>> rows) {
          long total = 0;
          for (const auto& row : rows) {
            if (row.ok()) total += std::atol(row.value().value.c_str());
          }
          if (++*dashboard_runs % 4 == 1) {
            std::printf("[%5.1fs] dashboard@I: %ld units in stock\n",
                        static_cast<double>(scheduler.Now()) / 1e6, total);
          }
          scheduler.After(Seconds(1), *dashboard);
        });
  };
  scheduler.At(Millis(500), *dashboard);

  scheduler.RunUntil(Seconds(25));

  TablePrinter table(
      {"Region", "orders", "rejected", "avg latency ms", "p99 ms"});
  long total_orders = 0;
  for (DcId region = 0; region < topo.size(); ++region) {
    RegionStats& s = (*stats)[region];
    total_orders += s.orders;
    table.AddRow({topo.names[region], std::to_string(s.orders),
                  std::to_string(s.rejected),
                  TablePrinter::Num(s.latency_ms.mean(), 1),
                  TablePrinter::Num(s.latency_ms.max(), 1)});
  }
  std::printf("\n%s", table.ToString().c_str());

  // Conservation check: serializability means stock is never oversold —
  // initial stock == remaining stock + committed orders, on every replica.
  long remaining = 0;
  for (int p = 0; p < kProducts; ++p) {
    remaining += std::atol(
        cluster.node(0).store().Read(StockKey(p)).value().value.c_str());
  }
  const long expected = static_cast<long>(kProducts) * kInitialStock;
  std::printf("\nconservation: %ld initial = %ld remaining + %ld orders %s\n",
              expected, remaining, total_orders,
              (remaining + total_orders == expected) ? "[OK]" : "[VIOLATED]");
  return remaining + total_orders == expected ? 0 : 1;
}
