#pragma once
// public engine header
