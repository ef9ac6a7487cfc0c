/**
 * @file
 * Umbrella header for the simulation core.
 */

#ifndef AKITA_SIM_SIM_HH
#define AKITA_SIM_SIM_HH

#include "sim/buffer.hh"
#include "sim/component.hh"
#include "sim/connection.hh"
#include "sim/engine.hh"
#include "sim/event.hh"
#include "sim/idmap.hh"
#include "sim/msg.hh"
#include "sim/name.hh"
#include "sim/pool.hh"
#include "sim/port.hh"
#include "sim/prof.hh"
#include "sim/time.hh"

#endif // AKITA_SIM_SIM_HH
