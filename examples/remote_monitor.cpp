/**
 * @file
 * Remote monitoring over the HTTP API — the "simulators written in
 * another language" path of paper §IV-B.
 *
 * This client contains no simulator code at all: it watches any running
 * AkitaRTM-compatible endpoint, which demonstrates that the API surface
 * is the integration boundary. It renders a terminal mini-dashboard:
 * simulation time, resource usage, progress bars, and the top of the
 * buffer analyzer table.
 *
 *   $ ./quickstart &                 # or any monitored simulation
 *   $ ./remote_monitor 127.0.0.1 8080
 */

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "json/json.hh"
#include "web/client.hh"

using akita::json::Json;
using akita::web::HttpClient;

int
main(int argc, char **argv)
{
    std::string host = argc > 1 ? argv[1] : "127.0.0.1";
    auto port = static_cast<std::uint16_t>(
        argc > 2 ? std::atoi(argv[2]) : 8080);
    int iterations = argc > 3 ? std::atoi(argv[3]) : 0; // 0 = forever.

    HttpClient client(host, port);
    std::printf("watching http://%s:%u (Ctrl-C to quit)\n", host.c_str(),
                port);

    for (int i = 0; iterations == 0 || i < iterations; i++) {
        auto status = client.get("/api/v1/status");
        if (!status || status->status != 200) {
            std::printf("no simulation at http://%s:%u yet...\n",
                        host.c_str(), port);
            std::this_thread::sleep_for(std::chrono::seconds(1));
            continue;
        }

        Json st = Json::parse(status->body);
        std::printf("\nt=%s  events=%lld  %s%s\n",
                    st.getStr("now").c_str(),
                    static_cast<long long>(st.getInt("events", 0)),
                    st.getBool("paused", false) ? "[paused] " : "",
                    st.get("hang") != nullptr &&
                            st.get("hang")->getBool("hanging", false)
                        ? "[HANG SUSPECTED]"
                        : "");

        if (auto res = client.get("/api/v1/resources")) {
            Json r = Json::parse(res->body);
            std::printf("cpu %.0f%%  rss %.0f MB  threads %lld\n",
                        r.getNumber("cpu_percent", 0),
                        r.getNumber("rss_bytes", 0) / 1048576.0,
                        static_cast<long long>(
                            r.getInt("num_threads", 0)));
        }

        if (auto prog = client.get("/api/v1/progress")) {
            Json bars = Json::parse(prog->body);
            for (const auto &b : bars.items()) {
                auto total =
                    std::max<std::int64_t>(b.getInt("total", 1), 1);
                auto done = b.getInt("completed", 0);
                int width = 30;
                int fill = static_cast<int>(done * width / total);
                std::string bar(static_cast<std::size_t>(fill), '#');
                bar.resize(static_cast<std::size_t>(width), '.');
                std::printf("%-24s [%s] %lld/%lld\n",
                            b.getStr("label").c_str(), bar.c_str(),
                            static_cast<long long>(done),
                            static_cast<long long>(total));
            }
        }

        if (auto bufs = client.get("/api/v1/buffers?sort=percent&top=5")) {
            Json rows = Json::parse(bufs->body);
            for (const auto &row : rows.items()) {
                if (row.getInt("size", 0) == 0)
                    continue;
                std::printf("  %-46s %lld/%lld\n",
                            row.getStr("buffer").c_str(),
                            static_cast<long long>(row.getInt("size", 0)),
                            static_cast<long long>(row.getInt("cap", 0)));
            }
        }

        std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    return 0;
}
