// Older names for the multi-user replay: a group of traces passed to
// TraceReplayer::Replay (harness/replayer.h), which replays one session
// or several on the same event loop.
#pragma once

#include "harness/replayer.h"

namespace sqp {

using MultiUserReplayOptions = ReplayOptions;
using MultiUserReplayer = TraceReplayer;

}  // namespace sqp
