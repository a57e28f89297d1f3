#pragma once
#include "core/engine.hpp"
