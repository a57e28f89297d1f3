void tiles() {
  // tfno-hot-begin: tile bodies
  float acc[16] = {};
  (void)acc;  // panels come from the scratch arena before the region
  // tfno-hot-end
}
