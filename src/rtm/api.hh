/**
 * @file
 * The RTM HTTP API (§IV-B).
 *
 * This is the boundary that lets "simulators written in another
 * language" adopt the monitor: any process that serves these endpoints
 * gets the same frontend. Endpoints, all JSON unless noted:
 *
 *   GET  /                        dashboard HTML
 *   GET  /metrics                 Prometheus text exposition
 *   GET  /api/v1/status           time, events, pause/run/hang state
 *   GET  /api/v1/resources        CPU%, RSS, threads
 *   GET  /api/v1/components       component hierarchy
 *   GET  /api/v1/component?name=X one component's fields/ports/buffers
 *   GET  /api/v1/buffers?sort=percent|size&top=N   buffer analyzer table
 *   GET  /api/v1/progress         progress bars
 *   POST /api/v1/pause            pause the simulation
 *   POST /api/v1/resume           resume ("Kick Start")
 *   POST /api/v1/tick?component=X wake one component
 *   GET  /api/v1/profile?top=N    profiler snapshot
 *   POST /api/v1/profile/start    enable the profiler
 *   POST /api/v1/profile/stop     disable the profiler
 *   POST /api/v1/monitor/track?component=X&field=Y   -> {"id": n}
 *   POST /api/v1/monitor/untrack?id=N
 *   GET  /api/v1/monitor/series?id=N        one time series
 *   GET  /api/v1/monitor/all                all tracked series
 *   GET  /api/v1/monitor/export?id=N        one series as CSV
 *   GET  /api/v1/throughput?component=X     per-port rates
 *   GET  /api/v1/topology                   connection map
 *   GET  /api/v1/metrics                    metric families
 *   GET  /api/v1/metrics/query?name=X       downsampled range query
 *   GET  /api/v1/metrics/stream             SSE sampling passes
 *   GET  /api/v1/hang                       hang verdict + root cause
 *   GET  /api/v1/domains                    per-domain engine state
 *   GET  /api/v1/recorder/info              flight-recorder status
 *   GET  /api/v1/recorder/range?name=X      recorded range query
 *
 * Alias rule: any other /api/<rest> answers exactly as /api/v1/<rest>,
 * through the same handler and the same cache key. The SSE stream has
 * no alias.
 */

#ifndef AKITA_RTM_API_HH
#define AKITA_RTM_API_HH

#include "web/server.hh"

namespace akita
{
namespace rtm
{

class Monitor;

/** Registers every RTM endpoint plus the dashboard on @p server. */
void installApiRoutes(web::HttpServer &server, Monitor &monitor);

/**
 * Router variant: registers the same routes on a detached table, for
 * mounting one monitor's API under a path prefix (the fleet gateway
 * serves N of these as /sim/<id>/...).
 */
void installApiRoutes(web::Router &router, Monitor &monitor);

/** The embedded single-page dashboard. */
const char *dashboardHtml();

} // namespace rtm
} // namespace akita

#endif // AKITA_RTM_API_HH
