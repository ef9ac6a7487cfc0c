/**
 * @file
 * JSON serialization of monitor data for the HTTP API.
 *
 * Serialization is deliberately fine-grained (§VII design choice 2):
 * each function serializes exactly one component, one buffer table, or
 * one series — never the whole simulation — so a monitoring request
 * borrows the engine lock only briefly.
 */

#ifndef AKITA_RTM_SERIALIZE_HH
#define AKITA_RTM_SERIALIZE_HH

#include "introspect/value.hh"
#include "json/json.hh"
#include "json/writer.hh"
#include "rtm/bufferanalyzer.hh"
#include "rtm/progressbar.hh"
#include "rtm/registry.hh"
#include "rtm/resources.hh"
#include "rtm/valuemonitor.hh"
#include "sim/prof.hh"

namespace akita
{
namespace rtm
{

/** Serializes a profile snapshot (self/total/edges, Fig. 2 E). */
json::Json serializeProfile(const sim::ProfSnapshot &snapshot);

/** Serializes a resource-usage sample. */
json::Json serializeResources(const ResourceUsage &usage);

// ---- Streaming serializers ----
//
// The only serializer of each RTM document: each appends straight into
// the response buffer through json::Writer, with no intermediate Json
// nodes.

/** Streams an introspection value. */
void writeValue(json::Writer &w, const introspect::Value &value);

/**
 * Streams one component: fields (name, type, value), ports, and buffer
 * levels. Must run under the engine lock.
 */
void writeComponent(json::Writer &w, const sim::Component &component);

/** Streams the component tree for the hierarchy view. */
void writeTree(json::Writer &w, const TreeNode &root);

/** Streams a buffer-level table (Fig. 3). */
void writeBuffers(json::Writer &w,
                  const std::vector<BufferLevel> &levels);

/** Streams progress bars. */
void writeProgress(json::Writer &w, const std::vector<ProgressBar> &bars);

/** Streams one tracked time series (Fig. 5 graphs). */
void writeSeries(json::Writer &w, const TrackedSeries &series);

} // namespace rtm
} // namespace akita

#endif // AKITA_RTM_SERIALIZE_HH
