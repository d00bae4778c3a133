module grfusion/benchmark

go 1.22

require grfusion v0.0.0

replace grfusion => ../
