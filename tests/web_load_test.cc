/**
 * @file
 * API load smoke test: a small fleet of keep-alive clients churns
 * against a live monitored simulation and asserts that no response is
 * dropped or garbled. This is the CI-sized version of
 * bench_api_load — correctness under concurrency, not throughput.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "rtm/monitor.hh"
#include "web/client.hh"

using namespace akita;

namespace
{

gpu::KernelDescriptor
loadKernel()
{
    gpu::KernelDescriptor k;
    k.name = "load";
    k.numWorkGroups = 64;
    k.wavefrontsPerWG = 2;
    k.trace = [](std::uint32_t wg, std::uint32_t wf) {
        std::vector<gpu::WfOp> ops;
        for (int i = 0; i < 4; i++) {
            ops.push_back(gpu::WfOp::load(
                0x10000ull + (wg * 64 + wf * 16 + i) * 4096, 64, 2));
        }
        return ops;
    };
    return k;
}

} // namespace

TEST(WebLoad, KeepAliveChurnDropsNothing)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    gpu::Platform plat(cfg);

    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    mcfg.sampleIntervalMs = 10;
    mcfg.hangThresholdSec = 10.0;
    rtm::Monitor mon(mcfg);
    mon.registerEngine(&plat.engine());
    for (auto *c : plat.components())
        mon.registerComponent(c);
    ASSERT_TRUE(mon.startServer());

    gpu::KernelDescriptor kernel = loadKernel();
    plat.launchKernel(&kernel);
    std::thread sim([&]() { plat.run(); });

    // Each client loops over the hot read endpoints on one keep-alive
    // connection, reconnecting every few requests (churn); every
    // response must be a well-formed 200 with a parseable body.
    constexpr int kClients = 6;
    constexpr int kReqsPerClient = 40;
    const char *targets[] = {
        "/api/components",
        "/api/buffers?sort=percent&top=20",
        "/api/status",
        "/api/progress",
        "/metrics",
    };
    std::atomic<int> good{0};
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++) {
        clients.emplace_back([&, c]() {
            web::PersistentClient client("127.0.0.1",
                                         mon.serverPort());
            for (int i = 0; i < kReqsPerClient; i++) {
                const char *target = targets[(c + i) % 5];
                auto r = client.get(target);
                if (!r) {
                    errors[c] = std::string("no response for ") +
                                target;
                    return;
                }
                if (r->status != 200) {
                    errors[c] = std::string("status ") +
                                std::to_string(r->status) + " for " +
                                target;
                    return;
                }
                bool isJson =
                    r->headers.count("content-type") &&
                    r->headers.at("content-type") ==
                        "application/json";
                if (isJson) {
                    try {
                        json::Json::parse(r->body);
                    } catch (const json::ParseError &e) {
                        errors[c] = std::string("garbled JSON from ") +
                                    target + ": " + e.what();
                        return;
                    }
                } else if (r->body.empty()) {
                    errors[c] = std::string("empty body from ") +
                                target;
                    return;
                }
                good++;
                if (i % 7 == 6)
                    client.disconnect(); // Churn: force reconnects.
            }
        });
    }
    for (auto &t : clients)
        t.join();
    sim.join();
    mon.stopServer();

    for (int c = 0; c < kClients; c++)
        EXPECT_EQ(errors[c], "") << "client " << c;
    EXPECT_EQ(good.load(), kClients * kReqsPerClient);
}
