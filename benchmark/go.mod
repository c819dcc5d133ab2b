module ps2stream/benchmark

go 1.23

require ps2stream v0.0.0

replace ps2stream => ../
